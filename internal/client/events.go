// events.go decodes the chunked-JSONL stream of GET /v1/jobs/{id}/events
// and builds the wait-for-completion loop on top of it: reconnect on a
// dropped stream, deduplicate the replayed prefix, finish on a terminal
// state line.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/api"
)

// EventStream is one open events connection. Next returns events in
// stream order and io.EOF when the server ends the stream (after a
// terminal state event). Close aborts early.
type EventStream struct {
	body io.ReadCloser
	dec  *json.Decoder
}

// StreamEvents opens the events stream of a job: completed points are
// replayed first, then results arrive as they land.
func (c *Client) StreamEvents(ctx context.Context, id string) (*EventStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("opening events stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return &EventStream{body: resp.Body, dec: json.NewDecoder(resp.Body)}, nil
}

// Next decodes the next event line; io.EOF means the stream completed.
func (s *EventStream) Next() (api.JobEvent, error) {
	var ev api.JobEvent
	err := s.dec.Decode(&ev)
	return ev, err
}

// Close aborts the stream.
func (s *EventStream) Close() error { return s.body.Close() }

// WaitJob follows a job to a terminal state through its events stream,
// invoking onEvent (if non-nil) for each fresh event — replayed point
// events already seen on a previous connection are suppressed. A
// dropped stream (coordinator restart, proxy timeout) is reconnected
// with backoff as long as ctx allows. It returns the job's final
// status including per-point results.
func (c *Client) WaitJob(ctx context.Context, id string, onEvent func(api.JobEvent)) (api.JobStatus, error) {
	seen := make(map[int]bool)
	delay := c.backoff
	if delay <= 0 {
		delay = 100 * time.Millisecond
	}
	for {
		stream, err := c.StreamEvents(ctx, id)
		if err != nil {
			var apiErr *api.Error
			if errors.As(err, &apiErr) && !retryable(apiErr) {
				return api.JobStatus{}, err
			}
			if ctx.Err() != nil {
				return api.JobStatus{}, ctx.Err()
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return api.JobStatus{}, ctx.Err()
			}
			continue
		}
		terminal, err := c.consume(stream, seen, onEvent)
		stream.Close()
		if terminal {
			return c.Job(ctx, id, true)
		}
		if ctx.Err() != nil {
			return api.JobStatus{}, ctx.Err()
		}
		// The stream dropped without a terminal event — reconnect and
		// resume from the replay.
		_ = err
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return api.JobStatus{}, ctx.Err()
		}
	}
}

// consume drains one stream connection, reporting whether a terminal
// state event arrived before it ended.
func (c *Client) consume(stream *EventStream, seen map[int]bool, onEvent func(api.JobEvent)) (bool, error) {
	for {
		ev, err := stream.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return false, nil
			}
			return false, err
		}
		switch ev.Type {
		case api.EventPoint:
			if ev.Point == nil || seen[ev.Point.Index] {
				continue
			}
			seen[ev.Point.Index] = true
		case api.EventState:
			if onEvent != nil {
				onEvent(ev)
			}
			if ev.State.Terminal() {
				// The server ends the stream right after the terminal
				// state. Reading to that end means the events request
				// has finished server-side, its accounting included,
				// when WaitJob returns, and the connection can be reused.
				for {
					if _, err := stream.Next(); err != nil {
						return true, nil
					}
				}
			}
			continue
		}
		if onEvent != nil {
			onEvent(ev)
		}
	}
}
