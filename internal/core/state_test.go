package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/auth"
	"repro/internal/config"
)

func TestStateRoundTrip(t *testing.T) {
	src := newSystem(t)
	if err := src.Bootstrap("prof", "teachme", auth.RoleAdmin); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Auth.Register("alice", "secret1", auth.RoleStudent); err != nil {
		t.Fatal(err)
	}
	home := src.FS.EnsureHome("alice")
	if err := home.MkdirAll("/src/deep"); err != nil {
		t.Fatal(err)
	}
	if err := home.WriteFile("/src/deep/prog.mc", []byte("func main() { }")); err != nil {
		t.Fatal(err)
	}
	if err := home.WriteFile("/notes.txt", []byte("remember the barrier")); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	dst, err := NewSystem(config.Default(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Accounts survive, including roles and passwords.
	u, err := dst.Auth.User("prof")
	if err != nil || u.Role != auth.RoleAdmin {
		t.Fatalf("prof = %+v, %v", u, err)
	}
	if _, err := dst.Auth.Login("alice", "secret1"); err != nil {
		t.Fatalf("restored password rejected: %v", err)
	}
	if _, err := dst.Auth.Login("alice", "wrong"); err == nil {
		t.Fatal("wrong password accepted after restore")
	}
	// Files survive with structure intact.
	restored, err := dst.FS.Home("alice")
	if err != nil {
		t.Fatal(err)
	}
	data, err := restored.ReadFile("/src/deep/prog.mc")
	if err != nil || string(data) != "func main() { }" {
		t.Fatalf("restored file = %q, %v", data, err)
	}
	if _, err := restored.Stat("/src/deep"); err != nil {
		t.Fatalf("restored dir missing: %v", err)
	}
}

func TestLoadStateRejectsBadInput(t *testing.T) {
	sys := newSystem(t)
	if err := sys.LoadState(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := sys.LoadState(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if err := sys.LoadState(strings.NewReader(`{"version":1,"users":[{"name":"ok1","salt":"zz"}]}`)); err == nil {
		t.Fatal("bad salt hex accepted")
	}
}
