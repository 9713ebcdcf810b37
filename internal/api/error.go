// error.go is the one definition of the service error envelope: every
// non-2xx rssd response is {"error": {code, message, line, col}}, and
// Classify is the single mapping from Go errors to that envelope.
package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro"
)

// Error is the structured error every non-2xx response carries, wrapped
// as {"error": {...}}. Code is a stable machine-readable identifier;
// Line/Col pin assembly errors to their source position.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Line    int    `json:"line,omitempty"`
	Col     int    `json:"col,omitempty"`

	// Status is the HTTP status the envelope arrived with. It is
	// client-side bookkeeping, not part of the wire document.
	Status int `json:"-"`
}

// Error makes *Error usable as a Go error on both sides of the wire.
func (e *Error) Error() string { return e.Message }

// Envelope is the wire wrapper of Error: the whole body of a non-2xx
// response.
type Envelope struct {
	Error *Error `json:"error"`
}

// Stable error codes.
const (
	CodeInvalidRequest    = "invalid_request"
	CodeAssembleError     = "assemble_error"
	CodeUnknownPolicy     = "unknown_policy"
	CodeInvalidParams     = "invalid_params"
	CodeCycleLimit        = "cycle_limit"
	CodeDeadlineExceeded  = "deadline_exceeded"
	CodeCanceled          = "canceled"
	CodeQueueFull         = "queue_full"
	CodeDraining          = "draining"
	CodeBodyTooLarge      = "body_too_large"
	CodeNotFound          = "not_found"
	CodeWorkerUnavailable = "worker_unavailable"
	CodeInternal          = "internal"
)

// Admission sentinels, mapped to 503 by Classify.
var (
	ErrQueueFull = errors.New("job queue is full")
	ErrDraining  = errors.New("server is draining")
)

// ErrNotFound marks lookups of unknown job IDs, mapped to 404.
var ErrNotFound = errors.New("not found")

// errInvalidRequest marks request-shape failures (missing program,
// negative timeout, too many points) for classification as 400s.
var errInvalidRequest = errors.New("invalid request")

// InvalidRequestf builds a 400-classified error.
func InvalidRequestf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, errInvalidRequest)...)
}

// Classify maps an error from the load/validate/simulate path to its
// HTTP status and structured form. The mapping leans entirely on the
// facade's sentinel errors and errors.Is/As — no message parsing.
func Classify(err error) (int, *Error) {
	var asmErr *repro.AsmError
	var maxBytes *http.MaxBytesError
	var apiErr *Error
	switch {
	case errors.As(err, &apiErr):
		// Already classified — e.g. an envelope a worker sent back,
		// relayed verbatim by the coordinator.
		status := apiErr.Status
		if status == 0 {
			status = http.StatusInternalServerError
		}
		return status, apiErr
	case errors.As(err, &asmErr):
		return http.StatusBadRequest, &Error{
			Code: CodeAssembleError, Message: err.Error(),
			Line: asmErr.Line, Col: asmErr.Col,
			Status: http.StatusBadRequest,
		}
	case errors.As(err, &maxBytes):
		return http.StatusRequestEntityTooLarge, &Error{
			Code: CodeBodyTooLarge, Message: err.Error(),
			Status: http.StatusRequestEntityTooLarge,
		}
	case errors.Is(err, repro.ErrUnknownPolicy):
		return http.StatusBadRequest, &Error{Code: CodeUnknownPolicy, Message: err.Error(), Status: http.StatusBadRequest}
	case errors.Is(err, repro.ErrInvalidParams):
		return http.StatusBadRequest, &Error{Code: CodeInvalidParams, Message: err.Error(), Status: http.StatusBadRequest}
	case errors.Is(err, errInvalidRequest):
		return http.StatusBadRequest, &Error{Code: CodeInvalidRequest, Message: err.Error(), Status: http.StatusBadRequest}
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, &Error{Code: CodeNotFound, Message: err.Error(), Status: http.StatusNotFound}
	case errors.Is(err, repro.ErrCycleLimit):
		return http.StatusUnprocessableEntity, &Error{Code: CodeCycleLimit, Message: err.Error(), Status: http.StatusUnprocessableEntity}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, &Error{Code: CodeDeadlineExceeded, Message: "request deadline exceeded", Status: http.StatusGatewayTimeout}
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, &Error{Code: CodeCanceled, Message: "request canceled", Status: http.StatusServiceUnavailable}
	case errors.Is(err, ErrQueueFull):
		return http.StatusServiceUnavailable, &Error{Code: CodeQueueFull, Message: err.Error(), Status: http.StatusServiceUnavailable}
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, &Error{Code: CodeDraining, Message: err.Error(), Status: http.StatusServiceUnavailable}
	default:
		return http.StatusInternalServerError, &Error{Code: CodeInternal, Message: err.Error(), Status: http.StatusInternalServerError}
	}
}
