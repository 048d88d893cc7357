package vfs_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/vfs"
)

// walkBytes recomputes a home's usage from scratch — the brute-force rescan
// the incremental Home.Used counter must always agree with.
func walkBytes(t *testing.T, h *vfs.Home) int64 {
	t.Helper()
	var sum int64
	err := h.Walk("/", func(in vfs.Info) error {
		if !in.Dir {
			sum += in.Size
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// randomOps drives one home through n random mutations: writes (fresh and
// overwriting), removes, copies and mkdirs. Every operation the VFS accepts
// must move Home.Used by exactly its byte delta; rejected operations (quota,
// missing paths) must not move the counter at all.
func randomOps(t *testing.T, h *vfs.Home, rng *rand.Rand, n int) {
	t.Helper()
	paths := []string{"/a.dat", "/b.dat", "/sub/c.dat", "/sub/d.dat", "/deep/e.dat"}
	h.MkdirAll("/sub")
	h.MkdirAll("/deep")
	for i := 0; i < n; i++ {
		p := paths[rng.Intn(len(paths))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // write dominates, like real traffic
			size := rng.Intn(4 << 10)
			h.WriteFile(p, make([]byte, size))
		case 6:
			h.Remove(p, false)
		case 7:
			h.Copy(p, paths[rng.Intn(len(paths))])
		case 8:
			h.Remove("/sub", true)
			h.MkdirAll("/sub")
		case 9:
			h.Rename(p, "/renamed.dat")
			h.Remove("/renamed.dat", false)
		}
	}
}

func TestUsedMatchesRescan(t *testing.T) {
	fs := vfs.New(64<<10, clock.NewSim()) // small quota so some writes are rejected
	rng := rand.New(rand.NewSource(7))
	h := fs.EnsureHome("alice")
	for round := 0; round < 20; round++ {
		randomOps(t, h, rng, 50)
		if used, rescan := h.Used(), walkBytes(t, h); used != rescan {
			t.Fatalf("round %d: Home.Used = %d, rescan = %d", round, used, rescan)
		}
	}
}

func TestUsedMatchesRescanConcurrent(t *testing.T) {
	fs := vfs.New(1<<20, clock.NewSim())
	const users = 6
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + u)))
			randomOps(t, fs.EnsureHome(fmt.Sprintf("user%d", u)), rng, 400)
		}(u)
	}
	wg.Wait()

	for u := 0; u < users; u++ {
		name := fmt.Sprintf("user%d", u)
		h, err := fs.Home(name)
		if err != nil {
			t.Fatal(err)
		}
		if used, rescan := h.Used(), walkBytes(t, h); used != rescan {
			t.Fatalf("%s: Home.Used = %d, rescan = %d", name, used, rescan)
		}
	}
}

// TestQuotaOverrideAppliesToLiveHome covers SetQuotaFunc: the lookup runs
// on every write and copy, so raising a user's quota, lifting it and
// resetting it to the default take effect on the existing home, and a home
// created later sees its own quota from the first write.
func TestQuotaOverrideAppliesToLiveHome(t *testing.T) {
	const def = 1024
	overrides := map[string]int64{} // 0 or absent inherits def, < 0 is unlimited
	fs := vfs.New(def, clock.NewSim())
	fs.SetQuotaFunc(func(user string) int64 {
		if q := overrides[user]; q != 0 {
			return q
		}
		return def
	})
	h := fs.EnsureHome("u")

	if err := h.WriteFile("/big.dat", make([]byte, 2048)); !errors.Is(err, vfs.ErrQuotaExceeded) {
		t.Fatalf("write over default quota: err = %v, want ErrQuotaExceeded", err)
	}
	overrides["u"] = 4096
	if err := h.WriteFile("/big.dat", make([]byte, 2048)); err != nil {
		t.Fatalf("write under raised quota: %v", err)
	}
	// A copy is charged against the same lookup: 2048 + 2048 fits 4096, a
	// third copy does not.
	if err := h.Copy("/big.dat", "/copy1.dat"); err != nil {
		t.Fatalf("copy under raised quota: %v", err)
	}
	if err := h.Copy("/big.dat", "/copy2.dat"); !errors.Is(err, vfs.ErrQuotaExceeded) {
		t.Fatalf("copy over quota: err = %v, want ErrQuotaExceeded", err)
	}
	overrides["u"] = -1 // unlimited
	if err := h.WriteFile("/huge.dat", make([]byte, 1<<20)); err != nil {
		t.Fatalf("write under unlimited quota: %v", err)
	}
	if err := h.Copy("/huge.dat", "/huge2.dat"); err != nil {
		t.Fatalf("copy under unlimited quota: %v", err)
	}
	for _, p := range []string{"/huge.dat", "/huge2.dat", "/copy1.dat"} {
		if err := h.Remove(p, false); err != nil {
			t.Fatal(err)
		}
	}
	overrides["u"] = 0 // back to the default
	if err := h.WriteFile("/more.dat", make([]byte, 2048)); !errors.Is(err, vfs.ErrQuotaExceeded) {
		t.Fatalf("write over restored default quota: err = %v, want ErrQuotaExceeded", err)
	}

	// A quota set before the home exists governs it from the first write.
	overrides["late"] = 8192
	late := fs.EnsureHome("late")
	if err := late.WriteFile("/f.dat", make([]byte, 4096)); err != nil {
		t.Fatalf("late home ignored its pre-set quota: %v", err)
	}
}
