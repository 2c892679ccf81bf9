// Package spd provides sparse symmetric positive definite matrices and the
// symbolic Cholesky factorization machinery the Cholesky workload builds
// on. The paper runs SPLASH Cholesky on the Boeing/Harwell matrix
// `bcsstk14`; since that input file is not shipped here, we substitute a
// 2-D grid Laplacian of comparable order and density, which preserves the
// property that matters for the study: a sparse factorization with
// fine-grained column-level dependencies and a high ratio of
// synchronization to computation.
package spd

import (
	"fmt"
	"math"
)

// Matrix is a sparse SPD matrix stored by columns, lower triangle including
// the diagonal, row indices sorted ascending within each column.
type Matrix struct {
	N      int
	Colptr []int32   // length N+1
	Rowidx []int32   // row index per nonzero
	Values []float64 // value per nonzero
}

// NNZ returns the stored nonzero count (lower triangle).
func (m *Matrix) NNZ() int { return len(m.Rowidx) }

// At returns the (i, j) entry for i >= j (lower triangle), 0 if absent.
func (m *Matrix) At(i, j int) float64 {
	for k := m.Colptr[j]; k < m.Colptr[j+1]; k++ {
		if int(m.Rowidx[k]) == i {
			return m.Values[k]
		}
	}
	return 0
}

// GridLaplacian returns the 5-point Laplacian of a k×k grid (n = k²
// unknowns) with the diagonal boosted for strict positive definiteness.
// With natural ordering (index = r·k + c) the below-diagonal neighbors of
// column j are j+1 (east) and j+k (south), already ascending.
func GridLaplacian(k int) *Matrix {
	n := k * k
	m := &Matrix{N: n, Colptr: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		r, c := j/k, j%k
		m.Colptr[j] = int32(len(m.Rowidx))
		m.Rowidx = append(m.Rowidx, int32(j))
		m.Values = append(m.Values, 4.5)
		if c+1 < k {
			m.Rowidx = append(m.Rowidx, int32(j+1))
			m.Values = append(m.Values, -1)
		}
		if r+1 < k {
			m.Rowidx = append(m.Rowidx, int32(j+k))
			m.Values = append(m.Values, -1)
		}
	}
	m.Colptr[n] = int32(len(m.Rowidx))
	return m
}

// Symbolic is the result of symbolic factorization: the nonzero structure
// of the Cholesky factor L (lower triangle including the diagonal, rows
// ascending within columns) and the elimination tree.
type Symbolic struct {
	N      int
	Colptr []int32
	Rowidx []int32
	Parent []int32 // elimination tree; -1 at roots
}

// NNZ returns the factor's stored nonzero count.
func (s *Symbolic) NNZ() int { return len(s.Rowidx) }

// RowPos returns, for column j, a map from row index to offset within the
// column (used to scatter updates).
func (s *Symbolic) RowPos(j int) map[int32]int32 {
	out := make(map[int32]int32, s.Colptr[j+1]-s.Colptr[j])
	for k := s.Colptr[j]; k < s.Colptr[j+1]; k++ {
		out[s.Rowidx[k]] = k - s.Colptr[j]
	}
	return out
}

// Analyze computes the elimination tree and the factor structure of a.
func Analyze(a *Matrix) *Symbolic {
	n := a.N
	parent := make([]int32, n)
	ancestor := make([]int32, n)
	for j := range parent {
		parent[j] = -1
		ancestor[j] = -1
	}
	// Liu's elimination-tree algorithm with path compression. Entries must
	// be visited in row order: entry (i, j), i > j, is row i's entry in
	// column j; walk the partially built tree from j toward i.
	rows := make([][]int32, n)
	for j := 0; j < n; j++ {
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			if i := a.Rowidx[p]; int(i) > j {
				rows[i] = append(rows[i], int32(j))
			}
		}
	}
	for i := 0; i < n; i++ {
		for _, j := range rows[i] {
			k := j
			for k != -1 && k < int32(i) {
				next := ancestor[k]
				ancestor[k] = int32(i)
				if next == -1 {
					parent[k] = int32(i)
					break
				}
				k = next
			}
		}
	}
	// Column structures: struct(L_j) = struct(A_j) ∪ (∪_children struct(L_c) \ {c}).
	children := make([][]int32, n)
	for j := 0; j < n; j++ {
		if parent[j] != -1 {
			children[parent[j]] = append(children[parent[j]], int32(j))
		}
	}
	s := &Symbolic{N: n, Colptr: make([]int32, n+1), Parent: parent}
	colrows := make([][]int32, n)
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	for j := 0; j < n; j++ {
		var rows []int32
		mark[j] = int32(j)
		rows = append(rows, int32(j))
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			i := a.Rowidx[p]
			if int(i) > j && mark[i] != int32(j) {
				mark[i] = int32(j)
				rows = append(rows, i)
			}
		}
		for _, c := range children[j] {
			for _, i := range colrows[c] {
				if int(i) > j && mark[i] != int32(j) {
					mark[i] = int32(j)
					rows = append(rows, i)
				}
			}
		}
		sortInt32(rows)
		colrows[j] = rows
	}
	for j := 0; j < n; j++ {
		s.Colptr[j] = int32(len(s.Rowidx))
		s.Rowidx = append(s.Rowidx, colrows[j]...)
	}
	s.Colptr[n] = int32(len(s.Rowidx))
	return s
}

func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Factor computes the numeric Cholesky factor sequentially (right-looking,
// the same update order class as the parallel workload) and returns the
// values aligned with the symbolic structure.
func Factor(a *Matrix, s *Symbolic) []float64 {
	n := a.N
	vals := make([]float64, s.NNZ())
	// scatter A into L's structure
	for j := 0; j < n; j++ {
		pos := s.RowPos(j)
		for p := a.Colptr[j]; p < a.Colptr[j+1]; p++ {
			off, ok := pos[a.Rowidx[p]]
			if !ok {
				panic(fmt.Sprintf("spd: A entry (%d,%d) outside factor structure", a.Rowidx[p], j))
			}
			vals[s.Colptr[j]+off] = a.Values[p]
		}
	}
	rowpos := make([]map[int32]int32, n)
	for j := 0; j < n; j++ {
		rowpos[j] = s.RowPos(j)
	}
	for k := 0; k < n; k++ {
		Cdiv(s, vals, k)
		// cmod(j, k) for each j in struct(k), j > k
		for p := s.Colptr[k] + 1; p < s.Colptr[k+1]; p++ {
			Cmod(s, vals, int(s.Rowidx[p]), k, rowpos[int(s.Rowidx[p])])
		}
	}
	return vals
}

// Cdiv performs the column division step on column k: the diagonal becomes
// its square root and the subdiagonal entries are divided by it.
func Cdiv(s *Symbolic, vals []float64, k int) {
	d := vals[s.Colptr[k]]
	if d <= 0 {
		panic(fmt.Sprintf("spd: non-positive pivot %v at column %d", d, k))
	}
	d = math.Sqrt(d)
	vals[s.Colptr[k]] = d
	for p := s.Colptr[k] + 1; p < s.Colptr[k+1]; p++ {
		vals[p] /= d
	}
}

// Cmod applies the update of completed column k to column j (j in
// struct(k), j > k): L[:][j] -= L[j][k] * L[:][k] over the shared rows.
func Cmod(s *Symbolic, vals []float64, j, k int, rowposJ map[int32]int32) {
	// find L[j][k]
	var ljk float64
	start := int32(-1)
	for p := s.Colptr[k]; p < s.Colptr[k+1]; p++ {
		if int(s.Rowidx[p]) == j {
			ljk = vals[p]
			start = p
			break
		}
	}
	if start < 0 {
		panic(fmt.Sprintf("spd: cmod(%d,%d) but L[%d][%d] not in structure", j, k, j, k))
	}
	for p := start; p < s.Colptr[k+1]; p++ {
		i := s.Rowidx[p]
		off, ok := rowposJ[i]
		if !ok {
			panic(fmt.Sprintf("spd: fill (%d,%d) missing from symbolic structure", i, j))
		}
		vals[s.Colptr[j]+off] -= ljk * vals[p]
	}
}
