// Fixture for the wiredrift analyzer: a codec whose hand-maintained
// tables have drifted from the Kind enum. KData never got a fields
// entry, KAck never got a name, the Version bumps to 5 and 6 opened no
// firstV5Kind/firstV6Kind bands (the consensus- and snapshot-frame
// bands in the live codec), firstV2Kind's version gate is missing from
// Decode, firstV3Kind points at a kind below the v2 band, and
// firstV4Kind lies past kindEnd (an empty band sits exactly on it).
package wiredrift

import "errors"

type Kind uint8

type fieldSet struct{ pg, vt bool }

const Version = 6 // want "wire version 6 has no firstV5Kind band marker" "wire version 6 has no firstV6Kind band marker"

const (
	KHello Kind = 1
	KData  Kind = 2 // want "wire kind KData has no fields entry"
	KAck   Kind = 3 // want "wire kind KAck has no kindNames entry"
	KLate  Kind = 4

	kindEnd Kind = 5

	firstV2Kind Kind = KLate // want "band marker firstV2Kind is not checked in Decode"
	firstV3Kind Kind = KData // want "band marker firstV3Kind .2. does not follow firstV2Kind .4."
	firstV4Kind Kind = 6     // want "band marker firstV4Kind .6. lies outside the kind enum"
)

var fields = map[Kind]fieldSet{
	KHello: {},
	KAck:   {pg: true},
	KLate:  {vt: true},
}

var kindNames = [kindEnd]string{
	KHello: "hello", KData: "data", KLate: "late",
}

var errTooNew = errors.New("wiredrift: kind too new for version")

func Decode(b []byte) (Kind, error) {
	if len(b) < 2 {
		return 0, errors.New("wiredrift: short frame")
	}
	k, v := Kind(b[0]), int(b[1])
	if v < 3 && k >= firstV3Kind {
		return 0, errTooNew
	}
	if v < 4 && k >= firstV4Kind {
		return 0, errTooNew
	}
	if _, ok := fields[k]; !ok {
		return 0, errors.New("wiredrift: unknown kind")
	}
	return k, nil
}
