package system_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/system"
	"repro/internal/workload"
)

// TestConfigHashPins pins the cfg/v4 Config.Hash of every default scheme
// and one PrefixHash. These are the keys of the service result cache, the
// durable store and the snapshot store: a refactor that changes how a
// configuration renders (a field moved, dropped or renamed) silently
// orphans every stored record, so such a change must bump the salt and
// refresh these values deliberately.
func TestConfigHashPins(t *testing.T) {
	want := map[system.Scheme]string{
		system.SchemeDRAM:           "6d62f9fdc68e9b27",
		system.SchemeHMC:            "548e27c3f8b7ccde",
		system.SchemeART:            "035bc80be1b41375",
		system.SchemeARFtid:         "09ca665c2e9e39ac",
		system.SchemeARFaddr:        "79cdfe68e33da7f3",
		system.SchemeARFtidAdaptive: "23d59b80207ccf0a",
		system.SchemeARFea:          "6eb0ae0b6e4a65a1",
	}
	for _, s := range system.AllSchemes() {
		cfg := system.DefaultConfig(s)
		if got := cfg.Hash(); got != want[s] {
			t.Errorf("%s: Config.Hash = %s, want %s", s, got, want[s])
		}
	}
	cfg := system.DefaultConfig(system.SchemeARFtid)
	if got, want := cfg.PrefixHash(4000), uint64(0xd7ee88bcb6131118); got != want {
		t.Errorf("ARF-tid PrefixHash(4000) = %#x, want %#x", got, want)
	}
}

// TestSnapshotBlobPin pins the SHA-256 of one checkpoint blob: lud/ARF-tid
// at ScaleTiny, snapshotted at the first quiescent point at or after cycle
// 4000. The blob encodes every component's state and counters (including
// the fabrics' occupancy counters), so any change to the wire format or to
// simulated state up to that cycle changes the digest.
func TestSnapshotBlobPin(t *testing.T) {
	sys, err := system.New(system.DefaultConfig(system.SchemeARFtid), "lud", workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.RunToCheckpoint(context.Background(), 4000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no quiescent point at or after cycle 4000")
	}
	sum := sha256.Sum256(snap)
	if got, want := hex.EncodeToString(sum[:]), "66e71267b4a1dc54360b2df7ca36d9c09f0338449b5f89c09f0448752f86eb0c"; got != want {
		t.Errorf("snapshot SHA-256 = %s, want %s (%d bytes)", got, want, len(snap))
	}
}
