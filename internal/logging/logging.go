// Package logging is the small leveled logger shared by the portal
// subsystems. It wraps the standard library logger with levels and a
// per-subsystem prefix, and supports a quiet mode for tests and benchmarks.
package logging

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Level is a log severity.
type Level int

// Severity levels, in increasing order.
const (
	Debug Level = iota
	Info
	Warn
	Error
	Off // suppresses everything
)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case Debug:
		return "DEBUG"
	case Info:
		return "INFO"
	case Warn:
		return "WARN"
	case Error:
		return "ERROR"
	case Off:
		return "OFF"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ParseLevel converts a name such as "info" to its Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug", "DEBUG":
		return Debug, nil
	case "info", "INFO":
		return Info, nil
	case "warn", "WARN", "warning":
		return Warn, nil
	case "error", "ERROR":
		return Error, nil
	case "off", "OFF", "none":
		return Off, nil
	}
	return Info, fmt.Errorf("logging: unknown level %q", s)
}

// Logger writes leveled, timestamped lines to a destination.
// It is safe for concurrent use.
type Logger struct {
	mu      sync.Mutex
	out     io.Writer
	min     Level
	name    string
	nowFn   func() time.Time
	lines   int
	scratch []byte // WriteLine prefix-assembly buffer, reused under mu
}

// New returns a Logger writing to out at the given minimum level, tagged
// with a subsystem name.
func New(out io.Writer, name string, min Level) *Logger {
	if out == nil {
		out = os.Stderr
	}
	return &Logger{out: out, min: min, name: name, nowFn: time.Now}
}

// Discard returns a logger that drops everything; handy in tests.
func Discard() *Logger {
	return &Logger{out: io.Discard, min: Off, name: "", nowFn: time.Now}
}

// Named returns a child logger with the same destination and level but a
// different subsystem name.
func (l *Logger) Named(name string) *Logger {
	l.mu.Lock()
	defer l.mu.Unlock()
	return &Logger{out: l.out, min: l.min, name: name, nowFn: l.nowFn}
}

// SetLevel changes the minimum level.
func (l *Logger) SetLevel(min Level) {
	l.mu.Lock()
	l.min = min
	l.mu.Unlock()
}

// SetNow overrides the timestamp source (used by tests).
func (l *Logger) SetNow(fn func() time.Time) {
	l.mu.Lock()
	l.nowFn = fn
	l.mu.Unlock()
}

// Lines reports how many lines have been emitted (after level filtering).
func (l *Logger) Lines() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lines
}

// Enabled reports whether a line at the given level would be emitted. Hot
// paths guard log calls with it so argument boxing and line assembly are
// skipped entirely when the level is filtered.
func (l *Logger) Enabled(lv Level) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return lv >= l.min && l.min != Off
}

// WriteLine emits a caller-assembled line at the given level without any
// formatting: the timestamp/level/name prefix is appended into an internal
// scratch buffer reused across calls, so a caller that also reuses its line
// buffer logs with zero allocations. line must not contain a newline; one is
// appended.
func (l *Logger) WriteLine(lv Level, line []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lv < l.min || l.min == Off {
		return
	}
	b := l.scratch[:0]
	b = l.nowFn().AppendFormat(b, "2006-01-02T15:04:05.000")
	b = append(b, ' ')
	name := lv.String()
	b = append(b, name...)
	for i := len(name); i < 5; i++ {
		b = append(b, ' ')
	}
	if l.name != "" {
		b = append(b, ' ', '[')
		b = append(b, l.name...)
		b = append(b, ']')
	}
	b = append(b, ' ')
	b = append(b, line...)
	b = append(b, '\n')
	l.scratch = b[:0]
	l.out.Write(b)
	l.lines++
}

func (l *Logger) log(lv Level, format string, args ...interface{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lv < l.min || l.min == Off {
		return
	}
	ts := l.nowFn().Format("2006-01-02T15:04:05.000")
	msg := fmt.Sprintf(format, args...)
	if l.name != "" {
		fmt.Fprintf(l.out, "%s %-5s [%s] %s\n", ts, lv, l.name, msg)
	} else {
		fmt.Fprintf(l.out, "%s %-5s %s\n", ts, lv, msg)
	}
	l.lines++
}

// Debugf logs at Debug level.
func (l *Logger) Debugf(format string, args ...interface{}) { l.log(Debug, format, args...) }

// Infof logs at Info level.
func (l *Logger) Infof(format string, args ...interface{}) { l.log(Info, format, args...) }

// Warnf logs at Warn level.
func (l *Logger) Warnf(format string, args ...interface{}) { l.log(Warn, format, args...) }

// Errorf logs at Error level.
func (l *Logger) Errorf(format string, args ...interface{}) { l.log(Error, format, args...) }
