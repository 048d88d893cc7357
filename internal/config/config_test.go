package config

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDefaultMatchesPaperCluster(t *testing.T) {
	c := Default()
	if c.Cluster.Segments != 4 {
		t.Errorf("segments = %d, want 4 (paper: four segments)", c.Cluster.Segments)
	}
	if c.Cluster.NodesPerSegment != 16 {
		t.Errorf("nodes per segment = %d, want 16 (paper: sixteen slave nodes)", c.Cluster.NodesPerSegment)
	}
	if c.TotalNodes() != 64 {
		t.Errorf("TotalNodes = %d, want 64", c.TotalNodes())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Default() does not validate: %v", err)
	}
}

func TestValidateCatchesEveryField(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"segments", func(c *Config) { c.Cluster.Segments = 0 }},
		{"nodes_per_segment", func(c *Config) { c.Cluster.NodesPerSegment = -1 }},
		{"cores_per_node", func(c *Config) { c.Cluster.CoresPerNode = 0 }},
		{"cores_alt", func(c *Config) { c.Cluster.CoresPerNodeAlt = -2 }},
		{"memory", func(c *Config) { c.Cluster.MemoryMBPerNode = 0 }},
		{"gpu_nodes", func(c *Config) { c.Cluster.GPUNodes = 99 }},
		{"latency", func(c *Config) { c.Network.InterSegmentLatency = -1 }},
		{"bandwidth", func(c *Config) { c.Network.BytesPerSecond = 0 }},
		{"listen", func(c *Config) { c.Portal.ListenAddr = "" }},
		{"session_ttl", func(c *Config) { c.Portal.SessionTTL = 0 }},
		{"upload", func(c *Config) { c.Portal.MaxUploadBytes = 0 }},
		{"quota", func(c *Config) { c.Portal.QuotaBytes = -5 }},
		{"queue", func(c *Config) { c.Limits.MaxQueuedJobs = 0 }},
		{"nodes_per_job", func(c *Config) { c.Limits.MaxNodesPerJob = 0 }},
		{"wall_time", func(c *Config) { c.Limits.JobWallTime = 0 }},
		{"step_budget", func(c *Config) { c.Limits.VMStepBudget = 0 }},
		{"artifact_cache", func(c *Config) { c.Limits.ArtifactCacheSize = 0 }},
		{"default_weight", func(c *Config) { c.Fairness.DefaultWeight = 0 }},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %q passed validation", m.name)
		}
	}
}

func TestDurationJSONRoundTrip(t *testing.T) {
	d := Duration(150 * time.Millisecond)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"150ms"` {
		t.Fatalf("marshal = %s, want \"150ms\"", b)
	}
	var back Duration
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip: %v != %v", back, d)
	}
}

func TestDurationAcceptsNanoseconds(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte("1500"), &d); err != nil {
		t.Fatal(err)
	}
	if d.Std() != 1500*time.Nanosecond {
		t.Fatalf("got %v, want 1.5µs", d.Std())
	}
}

func TestDurationRejectsGarbage(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"not-a-duration"`), &d); err == nil {
		t.Fatal("bad duration string accepted")
	}
	if err := json.Unmarshal([]byte(`{}`), &d); err == nil {
		t.Fatal("object accepted as duration")
	}
}

func TestReadAppliesDefaultsForAbsentFields(t *testing.T) {
	in := `{"cluster": {"segments": 2, "nodes_per_segment": 16, "cores_per_node": 2,
		"cores_per_node_alt": 0, "memory_mb_per_node": 1024, "gpu_nodes": 0}}`
	cfg, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cluster.Segments != 2 {
		t.Errorf("segments = %d, want 2", cfg.Cluster.Segments)
	}
	if cfg.Portal.ListenAddr != ":8080" {
		t.Errorf("portal default not applied: %q", cfg.Portal.ListenAddr)
	}
}

// TestReadRejectsUnknownFields: a misspelt key, and a file that still sets
// fairness.enabled (fair-share is the only dispatch pass, so the switch is
// gone), are refused rather than silently ignored.
func TestReadRejectsUnknownFields(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"clusterr": {}}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Load(filepath.Join("testdata", "fairness_enabled.json")); err == nil {
		t.Error("a file setting fairness.enabled was accepted")
	}
}

// TestPersistenceFsyncPolicies pins the two WAL fsync policies: "interval"
// is not one of them, and a file that still sets that policy's period is
// refused for its unknown field.
func TestPersistenceFsyncPolicies(t *testing.T) {
	for _, policy := range []string{"always", "never"} {
		c := Default()
		c.Persistence.Fsync = policy
		if err := c.Validate(); err != nil {
			t.Errorf("fsync %q rejected: %v", policy, err)
		}
	}
	c := Default()
	c.Persistence.Fsync = "interval"
	if err := c.Validate(); err == nil {
		t.Error(`fsync "interval" passed validation`)
	}
	if _, err := Load(filepath.Join("testdata", "interval_policy.json")); err == nil {
		t.Error("a file setting the interval policy's period was accepted")
	}
}

func TestReadRejectsInvalid(t *testing.T) {
	in := `{"cluster": {"segments": 0, "nodes_per_segment": 1, "cores_per_node": 1,
		"cores_per_node_alt": 0, "memory_mb_per_node": 1, "gpu_nodes": 0}}`
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	orig := Default()
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, orig)
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "portal.json")
	var buf bytes.Buffer
	if err := Default().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != Default() {
		t.Fatal("loaded config differs from written config")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}
