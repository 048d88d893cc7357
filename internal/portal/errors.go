package portal

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/auth"
	"repro/internal/jobs"
	"repro/internal/tenancy"
	"repro/internal/toolchain"
	"repro/internal/vfs"
)

// Stable machine-readable error codes. Clients switch on these, never on
// message text; messages may change, codes may not.
const (
	CodeInvalidArgument = "invalid_argument"
	CodeUnauthorized    = "unauthorized"
	CodeForbidden       = "forbidden"
	CodeNotFound        = "not_found"
	CodeAlreadyExists   = "already_exists"
	CodeConflict        = "conflict"
	CodeJobTerminal     = "job_terminal"
	CodeCompileFailed   = "compile_failed"
	CodeStdinOverflow   = "stdin_overflow"
	CodeQuotaExceeded   = "quota_exceeded"
	CodeQueueFull       = "queue_full"
	CodeBudgetExhausted = "budget_exhausted"
	CodeRateLimited     = "rate_limited"
	CodeInternal        = "internal"
)

// apiErr pairs an HTTP status with a stable code and a human message; it is
// the only way a handler reports failure.
type apiErr struct {
	status  int
	code    string
	msg     string
	details interface{} // optional structured payload (compile diagnostics)
	// retryAfter, when positive, emits a Retry-After header (seconds,
	// rounded up) so throttled clients learn when to come back.
	retryAfter time.Duration
}

// errorBody is the wire form inside the envelope.
type errorBody struct {
	Code      string      `json:"code"`
	Message   string      `json:"message"`
	RequestID string      `json:"request_id,omitempty"`
	Details   interface{} `json:"details,omitempty"`
}

// errorEnvelope is the outer wrapper of every error response.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// writeError emits the one true error envelope:
// {"error":{"code","message","request_id"}}, echoing the request ID the
// middleware assigned so a support ticket can be matched to the access log
// and the job trace. Like writeJSON it buffers the encode, so the envelope
// goes out with an exact Content-Length and an encode failure (a details
// payload refusing to marshal) degrades to a static 500 body instead of a
// truncated response.
func writeError(w http.ResponseWriter, r *http.Request, e *apiErr) {
	if e.retryAfter > 0 {
		secs := int64((e.retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	env := errorEnvelope{errorBody{
		Code: e.code, Message: e.msg, Details: e.details, RequestID: requestIDOf(w),
	}}
	rb := getBuf()
	rb.buf.Reset()
	if err := rb.enc.Encode(&env); err != nil {
		putBuf(rb)
		writeBody(w, http.StatusInternalServerError, encodeFailedBody)
		return
	}
	writeBody(w, e.status, rb.buf.Bytes())
	putBuf(rb)
}

// errf builds an apiErr with an explicit status and code.
func errf(status int, code, msg string) *apiErr {
	return &apiErr{status: status, code: code, msg: msg}
}

// fromDomain maps a domain error from any subsystem to its status and code.
// The mapping lives here, centrally, so two handlers can never disagree
// about what a quota breach or a missing job looks like on the wire.
func fromDomain(err error) *apiErr {
	switch {
	// auth
	case errors.Is(err, auth.ErrBadCredentials),
		errors.Is(err, auth.ErrSessionExpired),
		errors.Is(err, auth.ErrSessionNotFound):
		return errf(http.StatusUnauthorized, CodeUnauthorized, err.Error())
	case errors.Is(err, auth.ErrPermissionDenied):
		return errf(http.StatusForbidden, CodeForbidden, err.Error())
	case errors.Is(err, auth.ErrUserExists):
		return errf(http.StatusConflict, CodeAlreadyExists, err.Error())
	case errors.Is(err, auth.ErrWeakPassword),
		errors.Is(err, auth.ErrInvalidUsername),
		errors.Is(err, auth.ErrUnknownUser):
		return errf(http.StatusBadRequest, CodeInvalidArgument, err.Error())
	case errors.Is(err, auth.ErrDuplicateImport):
		return errf(http.StatusConflict, CodeAlreadyExists, err.Error())
	case errors.Is(err, auth.ErrBadImportRecord):
		return errf(http.StatusBadRequest, CodeInvalidArgument, err.Error())
	// vfs
	case errors.Is(err, vfs.ErrNotFound), errors.Is(err, vfs.ErrNoHome):
		return errf(http.StatusNotFound, CodeNotFound, err.Error())
	case errors.Is(err, vfs.ErrExists):
		return errf(http.StatusConflict, CodeAlreadyExists, err.Error())
	case errors.Is(err, vfs.ErrQuotaExceeded):
		return errf(http.StatusRequestEntityTooLarge, CodeQuotaExceeded, err.Error())
	case errors.Is(err, vfs.ErrInvalidPath), errors.Is(err, vfs.ErrNotDir),
		errors.Is(err, vfs.ErrIsDir), errors.Is(err, vfs.ErrDirNotEmpty):
		return errf(http.StatusBadRequest, CodeInvalidArgument, err.Error())
	// tenancy
	case errors.Is(err, tenancy.ErrBudgetExhausted):
		return errf(http.StatusUnprocessableEntity, CodeBudgetExhausted, err.Error())
	case errors.Is(err, tenancy.ErrTooManyJobs):
		e := errf(http.StatusTooManyRequests, CodeRateLimited, err.Error())
		e.retryAfter = time.Second
		return e
	// jobs
	case errors.Is(err, jobs.ErrNotFound):
		return errf(http.StatusNotFound, CodeNotFound, err.Error())
	case errors.Is(err, jobs.ErrQueueFull):
		return errf(http.StatusTooManyRequests, CodeQueueFull, err.Error())
	case errors.Is(err, jobs.ErrBadCursor):
		return errf(http.StatusBadRequest, CodeInvalidArgument, err.Error())
	case errors.Is(err, jobs.ErrBadTransition):
		return errf(http.StatusConflict, CodeJobTerminal, err.Error())
	case errors.Is(err, jobs.ErrStdinOverflow):
		return errf(http.StatusRequestEntityTooLarge, CodeStdinOverflow, err.Error())
	// toolchain
	case errors.Is(err, toolchain.ErrUnknownLanguage),
		errors.Is(err, toolchain.ErrUnknownArtifact):
		return errf(http.StatusBadRequest, CodeInvalidArgument, err.Error())
	default:
		return errf(http.StatusBadRequest, CodeInvalidArgument, err.Error())
	}
}
