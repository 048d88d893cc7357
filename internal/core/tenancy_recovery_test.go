package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/auth"
	"repro/internal/config"
	"repro/internal/tenancy"
)

// TestTenancyKillAndRecover: tenancy state must survive a hard kill. Limit
// overrides and step totals replay from the WAL; disk usage is the VFS's own
// count, rebuilt by replaying the VFS journal; and the recovered quota
// override must be enforceable immediately.
func TestTenancyKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	a := durableSystem(t, dir)
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Auth.Register("alice", "secret1", auth.RoleStudent); err != nil {
		t.Fatal(err)
	}
	home := a.FS.EnsureHome("alice")
	if err := home.WriteFile("/data.bin", make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := home.WriteFile("/scratch.bin", make([]byte, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := home.Remove("/scratch.bin", false); err != nil {
		t.Fatal(err)
	}
	a.Tenancy.SetLimits("alice", tenancy.Limits{QuotaBytes: 6000, StepBudget: 9999, Weight: 8})
	a.Tenancy.ChargeSteps("alice", 1234)

	// Acknowledge everything, then die hard — mid-write, torn frame and all.
	if err := a.Provider.Sync(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte{42, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	b := durableSystem(t, dir)
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := b.Tenancy.Overrides("alice"); got.QuotaBytes != 6000 || got.StepBudget != 9999 || got.Weight != 8 {
		t.Fatalf("recovered overrides = %+v", got)
	}
	if got := b.Tenancy.Steps("alice"); got != 1234 {
		t.Fatalf("recovered steps = %d, want 1234", got)
	}
	// Disk usage was rebuilt by VFS replay: the 5000-byte survivor counts,
	// the removed 3000-byte file does not.
	rhome, err := b.FS.Home("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got := rhome.Used(); got != 5000 {
		t.Fatalf("recovered disk usage = %d, want 5000", got)
	}
	// The recovered quota override is live in the VFS: 5000 used of 6000
	// leaves room for 500 but not 2000.
	if err := rhome.WriteFile("/more.bin", make([]byte, 2000)); err == nil {
		t.Fatal("write over the recovered 6000-byte quota succeeded")
	}
	if err := rhome.WriteFile("/ok.bin", make([]byte, 500)); err != nil {
		t.Fatalf("write within the recovered quota: %v", err)
	}

	// A second crash-recover cycle replays the same records over a snapshot
	// that may already contain them; totals must not double.
	if err := b.Provider.Sync(); err != nil {
		t.Fatal(err)
	}
	c := durableSystem(t, dir)
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := c.Tenancy.Steps("alice"); got != 1234 {
		t.Fatalf("steps after second recovery = %d, want 1234", got)
	}
	chome, err := c.FS.Home("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got := chome.Used(); got != 5500 {
		t.Fatalf("disk after second recovery = %d, want 5500", got)
	}
}

// TestTenancySnapshotRoundTrip: tenancy records ride in the version-3
// snapshot and import before homes, so a raised quota is in force when an
// oversized home is restored.
func TestTenancySnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tinySystem := func() *System {
		cfg := config.Default()
		cfg.Persistence.Mode = "durable"
		cfg.Persistence.Dir = dir
		cfg.Persistence.Fsync = "always"
		cfg.Portal.QuotaBytes = 4096 // small default so the test writes stay tiny
		sys, err := NewSystem(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a := tinySystem()
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Auth.Register("bob", "secret1", auth.RoleStudent); err != nil {
		t.Fatal(err)
	}
	// Raise bob's quota above the default and fill the home beyond it.
	defQuota := a.Config.Portal.QuotaBytes
	a.Tenancy.SetLimits("bob", tenancy.Limits{QuotaBytes: defQuota * 4})
	home := a.FS.EnsureHome("bob")
	if err := home.WriteFile("/big.bin", make([]byte, defQuota*2)); err != nil {
		t.Fatal(err)
	}
	a.Tenancy.ChargeSteps("bob", 42)
	if _, err := a.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	b := tinySystem()
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	rhome, err := b.FS.Home("bob")
	if err != nil {
		t.Fatal(err)
	}
	if got := rhome.Used(); got != defQuota*2 {
		t.Fatalf("restored home used = %d, want %d", got, defQuota*2)
	}
	if got := b.Tenancy.Steps("bob"); got != 42 {
		t.Fatalf("restored steps = %d, want 42", got)
	}
}
