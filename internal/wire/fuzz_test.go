package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// snapVersion is the envelope version of the committed session-v1
// snapshots (solve.SnapshotVersion, which this package cannot import).
const snapVersion = 1

// FuzzWireOpen hands arbitrary bytes and versions to Open, the first
// reader of a snapshot file. Nothing may panic, and a frame Open accepts
// must be exactly what Seal makes of the payload it returned.
func FuzzWireOpen(f *testing.F) {
	snaps, err := filepath.Glob(filepath.Join("..", "solve", "testdata", "*.snap"))
	if err != nil || len(snaps) == 0 {
		f.Fatalf("committed snapshots: %v (%d found)", err, len(snaps))
	}
	for _, path := range snaps {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint32(snapVersion))
	}
	frame := Seal(snapVersion, []byte("payload"))
	f.Add(frame[:len(magic)+7], uint32(snapVersion))                          // truncated header
	f.Add(append([]byte("SVSX"), frame[len(magic):]...), uint32(snapVersion)) // wrong magic
	f.Add(frame, uint32(snapVersion+1))                                       // wrong version
	f.Fuzz(func(t *testing.T, data []byte, version uint32) {
		payload, err := Open(data, version)
		if err != nil {
			return
		}
		if again := Seal(version, payload); !bytes.Equal(again, data) {
			t.Fatalf("Open accepted a frame that re-seals differently:\n%x\n%x", data, again)
		}
	})
}
