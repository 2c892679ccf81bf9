// Fixture for the wiredrift analyzer: a fully wired codec. Every kind
// has a fields entry and a name, every version past the first has a
// band marker — including the v5 consensus band and the v6 snapshot
// band mirroring the live codec's vote/append and snapshot-install
// frames, and an empty v7 band (a version that only widened existing
// kinds) closing the enum — the markers partition the enum in order, and
// Decode gates each band. No diagnostics expected.
package wiredriftok

import "errors"

type Kind uint8

type fieldSet struct{ pg, vt bool }

const Version = 7

const (
	KHello  Kind = 1
	KData   Kind = 2
	KAck    Kind = 3
	KJoin   Kind = 4
	KVote   Kind = 5
	KAppend Kind = 6
	KSnap   Kind = 7

	kindEnd Kind = 8

	firstV2Kind Kind = KData
	firstV3Kind Kind = KAck
	firstV4Kind Kind = KJoin
	firstV5Kind Kind = KVote
	firstV6Kind Kind = KSnap
	firstV7Kind Kind = kindEnd
)

var fields = map[Kind]fieldSet{
	KHello:  {},
	KData:   {pg: true},
	KAck:    {vt: true},
	KJoin:   {pg: true, vt: true},
	KVote:   {vt: true},
	KAppend: {pg: true},
	KSnap:   {pg: true, vt: true},
}

var kindNames = [kindEnd]string{
	KHello: "hello", KData: "data", KAck: "ack",
	KJoin: "join", KVote: "vote", KAppend: "append",
	KSnap: "snap",
}

var errTooNew = errors.New("wiredriftok: kind too new for version")

func Decode(b []byte) (Kind, error) {
	if len(b) < 2 {
		return 0, errors.New("wiredriftok: short frame")
	}
	k, v := Kind(b[0]), int(b[1])
	if v < 2 && k >= firstV2Kind {
		return 0, errTooNew
	}
	if v < 3 && k >= firstV3Kind {
		return 0, errTooNew
	}
	if v < 4 && k >= firstV4Kind {
		return 0, errTooNew
	}
	if v < 5 && k >= firstV5Kind {
		return 0, errTooNew
	}
	if v < 6 && k >= firstV6Kind {
		return 0, errTooNew
	}
	if v < 7 && k >= firstV7Kind {
		return 0, errTooNew
	}
	if _, ok := fields[k]; !ok {
		return 0, errors.New("wiredriftok: unknown kind")
	}
	return k, nil
}
