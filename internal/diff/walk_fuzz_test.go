package diff

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzRecordWalk pins NextRecord — the only parser on the store's read,
// GC and recovery paths — to the reference decoder: on arbitrary bytes
// the walker must yield exactly the (pid, ts, record bytes) sequence that
// DecodeAll followed by AppendTo yields, so it accepts the same records,
// stops at the same torn or corrupt tail, and never hands out a record
// whose bytes differ from what re-encoding its decode would produce.
func FuzzRecordWalk(f *testing.F) {
	d1 := Differential{PID: 3, TS: 9, Ranges: []Range{{Off: 0, Data: []byte{1, 2}}, {Off: 40, Data: []byte{7}}}}
	d2 := Differential{PID: 8, TS: 2}
	good := d2.AppendTo(d1.AppendTo(nil))
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), 0xFF, 0xFF, 0xFF))
	f.Add(good[:len(good)-3]) // torn tail
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(bad[14:], 5) // range count past the record end
	f.Add(bad)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, page []byte) {
		want := DecodeAll(page)
		n := 0
		for rec, rest, ok := NextRecord(page); ok; rec, rest, ok = NextRecord(rest) {
			if n >= len(want) {
				t.Fatalf("walker yields record %d, DecodeAll stops after %d", n, len(want))
			}
			d := want[n]
			if rec.PID() != d.PID || rec.TS() != d.TS {
				t.Fatalf("record %d: walker (pid %d, ts %d), DecodeAll (pid %d, ts %d)",
					n, rec.PID(), rec.TS(), d.PID, d.TS)
			}
			if enc := d.AppendTo(nil); !bytes.Equal(rec, enc) {
				t.Fatalf("record %d: walker bytes %x, re-encoded decode %x", n, []byte(rec), enc)
			}
			n++
		}
		if n != len(want) {
			t.Fatalf("walker stops after %d records, DecodeAll decodes %d", n, len(want))
		}
	})
}
