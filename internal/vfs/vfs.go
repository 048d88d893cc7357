// Package vfs implements the per-user virtual filesystem behind the portal's
// file manager. The paper's portal lets users "remotely manage their files":
// browse directories, upload and download files, edit text, and perform basic
// manipulations — copy, move, rename — inside a home directory nested per
// user. This package provides exactly that, in memory, with path sandboxing
// (no escape via ".."), per-user quotas, and deterministic modification times
// taken from an injected clock.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/dataprovider"
)

// Error values returned by filesystem operations. They wrap a path via
// fmt.Errorf("%w: %s", ...) so callers can use errors.Is.
var (
	ErrNotFound      = errors.New("vfs: not found")
	ErrExists        = errors.New("vfs: already exists")
	ErrNotDir        = errors.New("vfs: not a directory")
	ErrIsDir         = errors.New("vfs: is a directory")
	ErrQuotaExceeded = errors.New("vfs: quota exceeded")
	ErrInvalidPath   = errors.New("vfs: invalid path")
	ErrDirNotEmpty   = errors.New("vfs: directory not empty")
	ErrNoHome        = errors.New("vfs: no such home")
)

// Info describes a file or directory, as shown by the file browser.
type Info struct {
	// Name is the base name of the entry.
	Name string
	// Path is the clean absolute path within the home, e.g. "/src/main.c".
	Path string
	// Dir reports whether the entry is a directory.
	Dir bool
	// Size is the content length in bytes (0 for directories).
	Size int64
	// ModTime is the last modification time.
	ModTime time.Time
}

type node struct {
	name     string
	dir      bool
	data     []byte
	children map[string]*node
	modTime  time.Time
}

func newDir(name string, now time.Time) *node {
	return &node{name: name, dir: true, children: make(map[string]*node), modTime: now}
}

// Home is one user's sandboxed directory tree. All paths are interpreted
// relative to the home root; "/", "", "." and "foo/../bar" are handled by
// cleaning, and any path that would climb above the root is rejected.
type Home struct {
	mu   sync.RWMutex
	root *node
	used int64
	clk  clock.Clock
	// owner is the user this home belongs to; emit journals a mutation
	// through the owning FS's sink, and fs supplies the owner's quota. All
	// are set once at construction, before the home is published.
	//
	// Mutations call emit with h.mu held, deliberately: the record order in
	// the journal then matches the order mutations were applied in, which
	// replay depends on. The sink only enqueues (the committer goroutine
	// does the IO), so the lock is never held across a disk write.
	owner string
	emit  func(kind dataprovider.Kind, payload any)
	fs    *FS
}

// FS manages the collection of user homes, as the portal's backend.
type FS struct {
	mu    sync.RWMutex
	homes map[string]*Home
	// quota reports a user's byte quota; a value <= 0 means unlimited.
	quota   func(user string) int64
	clk     clock.Clock
	journal dataprovider.Sink
}

// New returns an FS that gives every user the same byte quota; 0 means
// unlimited.
func New(quota int64, clk clock.Clock) *FS {
	if clk == nil {
		clk = clock.Real{}
	}
	return &FS{homes: make(map[string]*Home), quota: func(string) int64 { return quota }, clk: clk}
}

// SetQuotaFunc replaces the constant quota New set with a per-user lookup;
// a result <= 0 means unlimited. The lookup runs on every write and copy,
// so a changed quota applies to the next one. It runs with the home's lock
// held: it must be cheap and must never call back into the filesystem.
// Call it once, before the filesystem serves traffic.
func (fs *FS) SetQuotaFunc(quota func(user string) int64) { fs.quota = quota }

// EnsureHome returns the user's home, creating it on first use. The common
// case — the home already exists — is served under the read lock, so
// steady-state request handling doesn't serialize on home lookup; the write
// lock is taken only on first use, with the existence re-checked under it.
func (fs *FS) EnsureHome(user string) *Home {
	fs.mu.RLock()
	h, ok := fs.homes[user]
	fs.mu.RUnlock()
	if ok {
		return h
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if h, ok := fs.homes[user]; ok {
		return h
	}
	h = &Home{root: newDir("/", fs.clk.Now()), clk: fs.clk, owner: user, emit: fs.journal.Emit, fs: fs}
	fs.homes[user] = h
	return h
}

// Home returns the user's home or ErrNoHome.
func (fs *FS) Home(user string) (*Home, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	h, ok := fs.homes[user]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoHome, user)
	}
	return h, nil
}

// Users lists users that have a home, sorted.
func (fs *FS) Users() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]string, 0, len(fs.homes))
	for u := range fs.homes {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Clean normalizes p to an absolute, "/"-rooted path inside the home and
// rejects attempts to escape. The empty string and "." mean the root.
func Clean(p string) (string, error) {
	if strings.ContainsRune(p, 0) {
		return "", fmt.Errorf("%w: NUL in path", ErrInvalidPath)
	}
	if p == "" {
		p = "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	c := path.Clean(p)
	// path.Clean of a rooted path can never yield "..", but be explicit.
	if c == ".." || strings.HasPrefix(c, "../") {
		return "", fmt.Errorf("%w: %q escapes home", ErrInvalidPath, p)
	}
	return c, nil
}

// split returns the cleaned parent directory and base name of p; the root
// itself has no parent and yields ok=false.
func split(p string) (parent, base string, ok bool) {
	if p == "/" {
		return "", "", false
	}
	dir, file := path.Split(p)
	if dir != "/" {
		dir = strings.TrimSuffix(dir, "/")
	}
	return dir, file, true
}

// lookup walks to the node at cleaned path p. Callers hold h.mu.
func (h *Home) lookup(p string) (*node, error) {
	if p == "/" {
		return h.root, nil
	}
	cur := h.root
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		if !cur.dir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, cur.name)
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
		}
		cur = next
	}
	return cur, nil
}

// Used reports the bytes currently consumed by file contents.
func (h *Home) Used() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.used
}

// Mkdir creates a directory. Parent directories must already exist; use
// MkdirAll to create the whole chain.
func (h *Home) Mkdir(p string) error {
	cp, err := Clean(p)
	if err != nil {
		return err
	}
	parent, base, ok := split(cp)
	if !ok {
		return fmt.Errorf("%w: %s", ErrExists, "/")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	pn, err := h.lookup(parent)
	if err != nil {
		return err
	}
	if !pn.dir {
		return fmt.Errorf("%w: %s", ErrNotDir, parent)
	}
	if _, exists := pn.children[base]; exists {
		return fmt.Errorf("%w: %s", ErrExists, cp)
	}
	now := h.clk.Now()
	pn.children[base] = newDir(base, now)
	pn.modTime = now
	h.emit(dataprovider.KindVFSMkdir, MkdirRecord{User: h.owner, Path: cp})
	return nil
}

// MkdirAll creates a directory and any missing parents. It succeeds if the
// directory already exists.
func (h *Home) MkdirAll(p string) error {
	cp, err := Clean(p)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if cp == "/" {
		return nil
	}
	cur := h.root
	now := h.clk.Now()
	for _, part := range strings.Split(strings.TrimPrefix(cp, "/"), "/") {
		next, ok := cur.children[part]
		if !ok {
			next = newDir(part, now)
			cur.children[part] = next
			cur.modTime = now
		} else if !next.dir {
			return fmt.Errorf("%w: %s", ErrNotDir, part)
		}
		cur = next
	}
	h.emit(dataprovider.KindVFSMkdir, MkdirRecord{User: h.owner, Path: cp, All: true})
	return nil
}

// WriteFile creates or replaces a file with the given contents. The parent
// directory must exist.
func (h *Home) WriteFile(p string, data []byte) error {
	cp, err := Clean(p)
	if err != nil {
		return err
	}
	parent, base, ok := split(cp)
	if !ok {
		return fmt.Errorf("%w: cannot write to /", ErrIsDir)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	pn, err := h.lookup(parent)
	if err != nil {
		return err
	}
	if !pn.dir {
		return fmt.Errorf("%w: %s", ErrNotDir, parent)
	}
	var old int64
	if existing, exists := pn.children[base]; exists {
		if existing.dir {
			return fmt.Errorf("%w: %s", ErrIsDir, cp)
		}
		old = int64(len(existing.data))
	}
	if quota := h.fs.quota(h.owner); quota > 0 && h.used-old+int64(len(data)) > quota {
		return fmt.Errorf("%w: writing %d bytes to %s (used %d of %d)",
			ErrQuotaExceeded, len(data), cp, h.used, quota)
	}
	now := h.clk.Now()
	cp2 := make([]byte, len(data))
	copy(cp2, data)
	pn.children[base] = &node{name: base, data: cp2, modTime: now}
	pn.modTime = now
	h.used += int64(len(data)) - old
	h.emit(dataprovider.KindVFSWrite, WriteRecord{User: h.owner, Path: cp, Data: cp2})
	return nil
}

// Upload streams contents from r into the file at p, enforcing maxBytes when
// positive. It returns the number of bytes stored.
func (h *Home) Upload(p string, r io.Reader, maxBytes int64) (int64, error) {
	var lr io.Reader = r
	if maxBytes > 0 {
		lr = io.LimitReader(r, maxBytes+1)
	}
	data, err := io.ReadAll(lr)
	if err != nil {
		return 0, fmt.Errorf("vfs: upload %s: %w", p, err)
	}
	if maxBytes > 0 && int64(len(data)) > maxBytes {
		return 0, fmt.Errorf("vfs: upload %s: exceeds limit of %d bytes", p, maxBytes)
	}
	if err := h.WriteFile(p, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// ReadFile returns a copy of the file contents.
func (h *Home) ReadFile(p string) ([]byte, error) {
	cp, err := Clean(p)
	if err != nil {
		return nil, err
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	n, err := h.lookup(cp)
	if err != nil {
		return nil, err
	}
	if n.dir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, cp)
	}
	out := make([]byte, len(n.data))
	copy(out, n.data)
	return out, nil
}

// Stat returns metadata for the entry at p.
func (h *Home) Stat(p string) (Info, error) {
	cp, err := Clean(p)
	if err != nil {
		return Info{}, err
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	n, err := h.lookup(cp)
	if err != nil {
		return Info{}, err
	}
	return infoFor(n, cp), nil
}

func infoFor(n *node, p string) Info {
	inf := Info{Name: n.name, Path: p, Dir: n.dir, ModTime: n.modTime}
	if p == "/" {
		inf.Name = "/"
	}
	if !n.dir {
		inf.Size = int64(len(n.data))
	}
	return inf
}

// List returns the entries of the directory at p, directories first, each
// group sorted by name — the order the file browser displays.
func (h *Home) List(p string) ([]Info, error) {
	cp, err := Clean(p)
	if err != nil {
		return nil, err
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	n, err := h.lookup(cp)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, cp)
	}
	out := make([]Info, 0, len(n.children))
	for name, child := range n.children {
		out = append(out, infoFor(child, path.Join(cp, name)))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dir != out[j].Dir {
			return out[i].Dir
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// Remove deletes a file or an empty directory. With recursive true it
// removes a directory tree.
func (h *Home) Remove(p string, recursive bool) error {
	cp, err := Clean(p)
	if err != nil {
		return err
	}
	parent, base, ok := split(cp)
	if !ok {
		return fmt.Errorf("%w: cannot remove /", ErrInvalidPath)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	pn, err := h.lookup(parent)
	if err != nil {
		return err
	}
	n, exists := pn.children[base]
	if !exists {
		return fmt.Errorf("%w: %s", ErrNotFound, cp)
	}
	if n.dir && !recursive && len(n.children) > 0 {
		return fmt.Errorf("%w: %s", ErrDirNotEmpty, cp)
	}
	h.used -= subtreeBytes(n)
	delete(pn.children, base)
	pn.modTime = h.clk.Now()
	h.emit(dataprovider.KindVFSRemove, RemoveRecord{User: h.owner, Path: cp, Recursive: recursive})
	return nil
}

func subtreeBytes(n *node) int64 {
	if !n.dir {
		return int64(len(n.data))
	}
	var total int64
	for _, c := range n.children {
		total += subtreeBytes(c)
	}
	return total
}

// Rename moves the entry at src to dst (both full paths). It implements both
// the "rename" and "move" file-manager operations. dst must not exist.
func (h *Home) Rename(src, dst string) error {
	cs, err := Clean(src)
	if err != nil {
		return err
	}
	cd, err := Clean(dst)
	if err != nil {
		return err
	}
	if cs == "/" || cd == "/" {
		return fmt.Errorf("%w: cannot move the home root", ErrInvalidPath)
	}
	if cd == cs || strings.HasPrefix(cd, cs+"/") {
		return fmt.Errorf("%w: cannot move %s into itself", ErrInvalidPath, cs)
	}
	sp, sb, _ := split(cs)
	dp, db, _ := split(cd)
	h.mu.Lock()
	defer h.mu.Unlock()
	spn, err := h.lookup(sp)
	if err != nil {
		return err
	}
	n, exists := spn.children[sb]
	if !exists {
		return fmt.Errorf("%w: %s", ErrNotFound, cs)
	}
	dpn, err := h.lookup(dp)
	if err != nil {
		return err
	}
	if !dpn.dir {
		return fmt.Errorf("%w: %s", ErrNotDir, dp)
	}
	if _, exists := dpn.children[db]; exists {
		return fmt.Errorf("%w: %s", ErrExists, cd)
	}
	now := h.clk.Now()
	delete(spn.children, sb)
	n.name = db
	n.modTime = now
	dpn.children[db] = n
	spn.modTime = now
	dpn.modTime = now
	h.emit(dataprovider.KindVFSRename, MoveRecord{User: h.owner, Src: cs, Dst: cd})
	return nil
}

// Copy duplicates the entry at src (file or directory tree) to dst, charging
// the quota for the new bytes. dst must not exist.
func (h *Home) Copy(src, dst string) error {
	cs, err := Clean(src)
	if err != nil {
		return err
	}
	cd, err := Clean(dst)
	if err != nil {
		return err
	}
	if cd == cs || strings.HasPrefix(cd, cs+"/") {
		return fmt.Errorf("%w: cannot copy %s into itself", ErrInvalidPath, cs)
	}
	dp, db, ok := split(cd)
	if !ok {
		return fmt.Errorf("%w: cannot copy onto /", ErrExists)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n, err := h.lookup(cs)
	if err != nil {
		return err
	}
	dpn, err := h.lookup(dp)
	if err != nil {
		return err
	}
	if !dpn.dir {
		return fmt.Errorf("%w: %s", ErrNotDir, dp)
	}
	if _, exists := dpn.children[db]; exists {
		return fmt.Errorf("%w: %s", ErrExists, cd)
	}
	extra := subtreeBytes(n)
	if quota := h.fs.quota(h.owner); quota > 0 && h.used+extra > quota {
		return fmt.Errorf("%w: copying %d bytes (used %d of %d)", ErrQuotaExceeded, extra, h.used, quota)
	}
	now := h.clk.Now()
	dpn.children[db] = cloneNode(n, db, now)
	dpn.modTime = now
	h.used += extra
	h.emit(dataprovider.KindVFSCopy, MoveRecord{User: h.owner, Src: cs, Dst: cd})
	return nil
}

func cloneNode(n *node, name string, now time.Time) *node {
	c := &node{name: name, dir: n.dir, modTime: now}
	if n.dir {
		c.children = make(map[string]*node, len(n.children))
		for k, child := range n.children {
			c.children[k] = cloneNode(child, k, now)
		}
	} else {
		c.data = make([]byte, len(n.data))
		copy(c.data, n.data)
	}
	return c
}

// Dump is one entry of a serialized home, for persistence.
type Dump struct {
	// Path is the entry's full path within the home.
	Path string `json:"path"`
	// Dir marks directories; Data carries file contents.
	Dir  bool   `json:"dir"`
	Data []byte `json:"data,omitempty"`
}

// Export serializes the home's tree, directories first along each path, so
// Import can replay it in order. A single lock acquisition keeps the dump a
// consistent snapshot.
func (h *Home) Export() []Dump {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var out []Dump
	var rec func(n *node, p string)
	rec = func(n *node, p string) {
		if p != "/" {
			d := Dump{Path: p, Dir: n.dir}
			if !n.dir {
				d.Data = append([]byte(nil), n.data...)
			}
			out = append(out, d)
		}
		if !n.dir {
			return
		}
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rec(n.children[name], path.Join(p, name))
		}
	}
	rec(h.root, "/")
	return out
}

// Import replays a dump into the home. Existing entries are overwritten.
func (h *Home) Import(dump []Dump) error {
	for _, d := range dump {
		if d.Dir {
			if err := h.MkdirAll(d.Path); err != nil {
				return err
			}
			continue
		}
		cp, err := Clean(d.Path)
		if err != nil {
			return err
		}
		if idx := strings.LastIndex(cp, "/"); idx > 0 {
			if err := h.MkdirAll(cp[:idx]); err != nil {
				return err
			}
		}
		if err := h.WriteFile(cp, d.Data); err != nil {
			return err
		}
	}
	return nil
}

// Walk visits every entry under p in depth-first, name-sorted order.
func (h *Home) Walk(p string, fn func(Info) error) error {
	cp, err := Clean(p)
	if err != nil {
		return err
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	n, err := h.lookup(cp)
	if err != nil {
		return err
	}
	return walk(n, cp, fn)
}

func walk(n *node, p string, fn func(Info) error) error {
	if err := fn(infoFor(n, p)); err != nil {
		return err
	}
	if !n.dir {
		return nil
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := walk(n.children[name], path.Join(p, name), fn); err != nil {
			return err
		}
	}
	return nil
}
