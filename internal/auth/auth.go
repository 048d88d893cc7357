// Package auth provides the portal's "means of user distinction": user
// accounts with salted, iterated SHA-256 password hashes, roles (student,
// faculty, admin), and browser sessions with expiry.
//
// Passwords are verified in constant time. Session tokens come from
// crypto/rand and are unguessable; session lifetime is measured against an
// injected clock so tests control expiry deterministically.
package auth

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/dataprovider"
	"repro/internal/ids"
)

// Role classifies an account's privileges.
type Role int

// Account roles. Students can manage their own files and jobs; faculty can
// additionally inspect any job; admins can manage accounts and nodes.
const (
	RoleStudent Role = iota
	RoleFaculty
	RoleAdmin
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleStudent:
		return "student"
	case RoleFaculty:
		return "faculty"
	case RoleAdmin:
		return "admin"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Errors returned by the service.
var (
	ErrUserExists       = errors.New("auth: user already exists")
	ErrUnknownUser      = errors.New("auth: unknown user")
	ErrBadCredentials   = errors.New("auth: invalid username or password")
	ErrSessionExpired   = errors.New("auth: session expired")
	ErrSessionNotFound  = errors.New("auth: session not found")
	ErrWeakPassword     = errors.New("auth: password too short (minimum 6 characters)")
	ErrInvalidUsername  = errors.New("auth: invalid username")
	ErrPermissionDenied = errors.New("auth: permission denied")
	// ErrDuplicateImport rejects an Import whose records collide — with an
	// existing account or with each other. Import never silently
	// overwrites; a restore belongs on a fresh service.
	ErrDuplicateImport = errors.New("auth: duplicate username in import")
	// ErrBadImportRecord rejects an Import record that is structurally
	// invalid (bad name, undecodable salt or hash, empty digest).
	ErrBadImportRecord = errors.New("auth: invalid import record")
)

const (
	hashIterations = 4096
	saltBytes      = 16
	minPassword    = 6
)

// User is a portal account.
type User struct {
	Name    string
	Role    Role
	salt    []byte
	hash    []byte
	Created time.Time
	// cached is the single-iteration digest of the last successfully
	// verified password (sha256(salt||password), the first round of the
	// stored iterated hash). A login whose digest matches it skips the
	// remaining hashIterations-1 rounds — the sftpgo "cached password"
	// pattern — so hot login loops cost one SHA-256 instead of 4096.
	// ChangePassword clears it. nil until the first successful login.
	cached []byte
}

// Session is an authenticated browser session. Sessions are immutable after
// creation: Lookup hands out the stored pointer, so nothing may write these
// fields once the session is registered.
type Session struct {
	Token   string
	User    string
	Role    Role
	Expires time.Time
}

// sessionShards is the session-map shard count; a power of two so the
// token-hash shard pick is a mask. Sharding keeps token verification — on
// every authenticated request — from serializing on one lock.
const sessionShards = 16

type sessionShard struct {
	mu sync.RWMutex
	m  map[string]*Session
}

// Service stores users and sessions.
type Service struct {
	mu       sync.RWMutex
	users    map[string]*User
	sessions [sessionShards]sessionShard
	clk      clock.Clock
	ttl      time.Duration
	tokens   *ids.Random
	journal  dataprovider.Sink
}

// NewService returns an auth service with the given session TTL.
func NewService(ttl time.Duration, clk clock.Clock) *Service {
	if clk == nil {
		clk = clock.Real{}
	}
	s := &Service{
		users:  make(map[string]*User),
		clk:    clk,
		ttl:    ttl,
		tokens: ids.NewRandom("sess", 16),
	}
	for i := range s.sessions {
		s.sessions[i].m = make(map[string]*Session)
	}
	return s
}

// shardFor picks the session shard for a token (FNV-1a, masked).
func (s *Service) shardFor(token string) *sessionShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(token); i++ {
		h ^= uint64(token[i])
		h *= prime64
	}
	return &s.sessions[h&(sessionShards-1)]
}

// passwordDigest is the first round of the iterated hash:
// sha256(salt||password). It is both the input to the remaining iterations
// and the value the credential cache compares against.
func passwordDigest(password string, salt []byte) [sha256.Size]byte {
	buf := make([]byte, 0, len(salt)+len(password))
	buf = append(buf, salt...)
	buf = append(buf, password...)
	return sha256.Sum256(buf)
}

// iterateDigest runs the remaining hashIterations-1 rounds over the first
// digest, producing the stored password hash.
func iterateDigest(sum [sha256.Size]byte) []byte {
	for i := 1; i < hashIterations; i++ {
		sum = sha256.Sum256(sum[:])
	}
	out := make([]byte, sha256.Size)
	copy(out, sum[:])
	return out
}

// hashPassword derives an iterated salted SHA-256 digest. Iterating the hash
// (stdlib-only) slows brute force the way PBKDF1 does.
func hashPassword(password string, salt []byte) []byte {
	return iterateDigest(passwordDigest(password, salt))
}

func validUsername(name string) bool {
	if len(name) < 2 || len(name) > 32 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}

// Register creates a new account.
func (s *Service) Register(name, password string, role Role) (*User, error) {
	if !validUsername(name) {
		return nil, fmt.Errorf("%w: %q", ErrInvalidUsername, name)
	}
	if len(password) < minPassword {
		return nil, ErrWeakPassword
	}
	salt := make([]byte, saltBytes)
	if _, err := rand.Read(salt); err != nil {
		return nil, fmt.Errorf("auth: generating salt: %w", err)
	}
	s.mu.Lock()
	if _, exists := s.users[name]; exists {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUserExists, name)
	}
	u := &User{
		Name:    name,
		Role:    role,
		salt:    salt,
		hash:    hashPassword(password, salt),
		Created: s.clk.Now(),
	}
	s.users[name] = u
	s.mu.Unlock()
	s.journalUser(u)
	return u, nil
}

// verifyPassword checks password against the account's stored hash,
// consulting the credential cache first. It returns whether the password is
// valid and whether the hit came from the cache. On a successful full
// verification it populates the cache — guarded against a concurrent
// ChangePassword by rechecking that the salt is unchanged.
func (s *Service) verifyPassword(name, password string) (ok, cachedHit bool) {
	s.mu.RLock()
	u, exists := s.users[name]
	var salt, hash, cached []byte
	if exists {
		salt, hash, cached = u.salt, u.hash, u.cached
	}
	s.mu.RUnlock()
	if !exists {
		// Burn the same work as a real check so timing doesn't reveal
		// whether the username exists.
		hashPassword(password, make([]byte, saltBytes))
		return false, false
	}
	d := passwordDigest(password, salt)
	if cached != nil && hmac.Equal(d[:], cached) {
		return true, true
	}
	if !hmac.Equal(iterateDigest(d), hash) {
		return false, false
	}
	s.mu.Lock()
	// Only cache if the credentials we verified are still current.
	if cur, stillThere := s.users[name]; stillThere && &cur.salt[0] == &salt[0] {
		cur.cached = d[:]
	}
	s.mu.Unlock()
	return true, false
}

// Login checks credentials and opens a session.
func (s *Service) Login(name, password string) (*Session, error) {
	ok, _ := s.verifyPassword(name, password)
	if !ok {
		return nil, ErrBadCredentials
	}
	s.mu.RLock()
	u, exists := s.users[name]
	var userName string
	var role Role
	if exists {
		userName, role = u.Name, u.Role
	}
	s.mu.RUnlock()
	if !exists {
		return nil, ErrBadCredentials
	}
	sess := &Session{
		Token:   s.tokens.Next(),
		User:    userName,
		Role:    role,
		Expires: s.clk.Now().Add(s.ttl),
	}
	sh := s.shardFor(sess.Token)
	sh.mu.Lock()
	sh.m[sess.Token] = sess
	sh.mu.Unlock()
	return sess, nil
}

// Lookup resolves a session token, refusing expired sessions (and reaping
// them as a side effect). The returned Session is the stored, immutable
// record — the fast path on every authenticated request is one read-locked
// map hit on the token's shard, with no copy.
func (s *Service) Lookup(token string) (*Session, error) {
	sh := s.shardFor(token)
	sh.mu.RLock()
	sess, ok := sh.m[token]
	sh.mu.RUnlock()
	if !ok {
		return nil, ErrSessionNotFound
	}
	if s.clk.Now().After(sess.Expires) {
		sh.mu.Lock()
		delete(sh.m, token)
		sh.mu.Unlock()
		return nil, ErrSessionExpired
	}
	return sess, nil
}

// Logout closes a session. Unknown tokens are ignored.
func (s *Service) Logout(token string) {
	sh := s.shardFor(token)
	sh.mu.Lock()
	delete(sh.m, token)
	sh.mu.Unlock()
}

// ChangePassword updates a user's password after verifying the old one. The
// credential cache is invalidated: a login with the old password afterwards
// takes the full verification path and fails. Verification happens under the
// service lock so a concurrent change cannot interleave between check and
// update.
func (s *Service) ChangePassword(name, oldPassword, newPassword string) error {
	if len(newPassword) < minPassword {
		return ErrWeakPassword
	}
	s.mu.Lock()
	u, exists := s.users[name]
	if !exists {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownUser, name)
	}
	if !hmac.Equal(hashPassword(oldPassword, u.salt), u.hash) {
		s.mu.Unlock()
		return ErrBadCredentials
	}
	salt := make([]byte, saltBytes)
	if _, err := rand.Read(salt); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("auth: generating salt: %w", err)
	}
	u.salt = salt
	u.hash = hashPassword(newPassword, salt)
	u.cached = nil
	cp := *u
	s.mu.Unlock()
	s.journalUser(&cp)
	return nil
}

// SetRole changes a user's role; only an admin actor may do so.
func (s *Service) SetRole(actor, name string, role Role) error {
	s.mu.Lock()
	a, ok := s.users[actor]
	if !ok || a.Role != RoleAdmin {
		s.mu.Unlock()
		return ErrPermissionDenied
	}
	u, ok := s.users[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownUser, name)
	}
	u.Role = role
	cp := *u
	s.mu.Unlock()
	s.journalUser(&cp)
	return nil
}

// User returns account metadata (no secrets).
func (s *Service) User(name string) (User, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	u, ok := s.users[name]
	if !ok {
		return User{}, fmt.Errorf("%w: %q", ErrUnknownUser, name)
	}
	return User{Name: u.Name, Role: u.Role, Created: u.Created}, nil
}

// Usernames lists all accounts, sorted.
func (s *Service) Usernames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.users))
	for n := range s.users {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ActiveSessions counts unexpired sessions, reaping expired ones shard by
// shard as a side effect.
func (s *Service) ActiveSessions() int {
	now := s.clk.Now()
	n := 0
	for i := range s.sessions {
		sh := &s.sessions[i]
		sh.mu.Lock()
		for tok, sess := range sh.m {
			if now.After(sess.Expires) {
				delete(sh.m, tok)
				continue
			}
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// Record is a serialized account, for persistence. The hash and salt are
// opaque; passwords are never recoverable from a Record.
type Record struct {
	Name    string    `json:"name"`
	Role    Role      `json:"role"`
	Salt    string    `json:"salt"`
	Hash    string    `json:"hash"`
	Created time.Time `json:"created"`
}

// Export serializes every account (without sessions), sorted by name.
func (s *Service) Export() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Record, 0, len(s.users))
	for _, u := range s.users {
		out = append(out, Record{
			Name:    u.Name,
			Role:    u.Role,
			Salt:    hex.EncodeToString(u.salt),
			Hash:    hex.EncodeToString(u.hash),
			Created: u.Created,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// decodeRecord validates one serialized account and returns the live form.
func decodeRecord(r Record) (*User, error) {
	if !validUsername(r.Name) {
		return nil, fmt.Errorf("%w: %w: %q", ErrBadImportRecord, ErrInvalidUsername, r.Name)
	}
	salt, err := hex.DecodeString(r.Salt)
	if err != nil {
		return nil, fmt.Errorf("%w: %q: bad salt: %v", ErrBadImportRecord, r.Name, err)
	}
	hash, err := hex.DecodeString(r.Hash)
	if err != nil {
		return nil, fmt.Errorf("%w: %q: bad hash: %v", ErrBadImportRecord, r.Name, err)
	}
	if len(salt) == 0 || len(hash) == 0 {
		return nil, fmt.Errorf("%w: %q: empty salt or hash", ErrBadImportRecord, r.Name)
	}
	return &User{Name: r.Name, Role: r.Role, salt: salt, hash: hash, Created: r.Created}, nil
}

// Import restores accounts from Export's output. It is all-or-nothing:
// every record is validated before any is applied, and a record naming an
// existing account — or the same name twice in one batch — fails the whole
// import with ErrDuplicateImport rather than silently overwriting. Imported
// accounts are journaled like registrations; sessions are unaffected.
func (s *Service) Import(records []Record) error {
	decoded := make([]*User, 0, len(records))
	inBatch := make(map[string]bool, len(records))
	for _, r := range records {
		u, err := decodeRecord(r)
		if err != nil {
			return err
		}
		if inBatch[r.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateImport, r.Name)
		}
		inBatch[r.Name] = true
		decoded = append(decoded, u)
	}
	s.mu.Lock()
	for _, u := range decoded {
		if _, exists := s.users[u.Name]; exists {
			s.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrDuplicateImport, u.Name)
		}
	}
	for _, u := range decoded {
		s.users[u.Name] = u
	}
	s.mu.Unlock()
	for _, u := range decoded {
		s.journalUser(u)
	}
	return nil
}

// FingerprintToken returns a short non-reversible identifier for a token,
// safe to put in logs.
func FingerprintToken(token string) string {
	sum := sha256.Sum256([]byte(token))
	return hex.EncodeToString(sum[:4])
}
