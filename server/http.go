package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"hydee"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs          submit a JobRequest, 202 + JobView (or 400 / 503)
//	GET    /v1/jobs          list all jobs
//	GET    /v1/jobs/{id}     one job's status and summaries
//	DELETE /v1/jobs/{id}     cancel (idempotent), 200 + JobView
//	GET    /v1/jobs/{id}/events   live SSE: the job's event stream replayed
//	                              from the start, one `lifecycle` event per
//	                              run event (data = the JSONL wire record),
//	                              terminated by one `summary` event carrying
//	                              the final JobView
//	GET    /v1/registry      the selectable backend names
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

func jobID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, r.PathValue("id"))
	}
	return id, nil
}

// maxJobBytes bounds a job submission's body: hundreds of runs, or one
// run's assign at the largest np a sweep spec accepts, fit well under
// it. A larger body answers 400 without being read to its end.
const maxJobBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBytes)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job request: " + err.Error()})
		return
	}
	view, err := s.Submit(req)
	if err != nil {
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	view, err := s.Job(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	view, err := s.Cancel(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleEvents streams a job's events as Server-Sent Events: replay from
// the start, then live until the job finishes. Each run event is framed as
//
//	event: lifecycle
//	data: {"kind":"run-start",...}        ← MarshalRunEvent, byte-identical
//	                                        to the JSONL files on disk
//
// and the stream terminates with
//
//	event: summary
//	data: {"id":1,"state":"done",...}     ← the final JobView
//
// A client disconnect detaches the subscriber without touching the job.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	events, cancel, err := s.Subscribe(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer cancel()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		var (
			ev hydee.RunEvent
			ok bool
		)
		select {
		case ev, ok = <-events:
		case <-r.Context().Done():
			return
		}
		// Write every event that is already waiting, then flush once: a job
		// emits its events in bursts, and a flush per event was most of the
		// handler's time.
		for ready := true; ready; {
			if !ok {
				// Stream drained: the job is terminal (Subscribe's channel
				// only closes after the fanout hub is closed, which run()
				// and queued-cancel do after the state settles).
				writeSummary(w, s, id)
				flusher.Flush()
				return
			}
			if data, err := hydee.MarshalRunEvent(ev); err == nil {
				fmt.Fprintf(w, "event: lifecycle\ndata: %s\n\n", data)
			}
			select {
			case ev, ok = <-events:
			default:
				ready = false
			}
		}
		flusher.Flush()
	}
}

// writeSummary writes the stream's closing summary event: the job's final
// view, or nothing if it cannot be read.
func writeSummary(w http.ResponseWriter, s *Server, id int) {
	view, err := s.Job(id)
	if err != nil {
		return
	}
	data, err := json.Marshal(view)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: summary\ndata: %s\n\n", data)
}

func (s *Server) handleRegistry(w http.ResponseWriter, _ *http.Request) {
	kernels := make([]string, 0, len(hydee.Kernels()))
	for _, k := range hydee.Kernels() {
		kernels = append(kernels, k.Name)
	}
	writeJSON(w, http.StatusOK, map[string][]string{
		"kernels":   kernels,
		"protocols": hydee.ExperimentProtoNames(),
		"models":    hydee.ModelNames(),
		"stores":    hydee.StoreNames(),
		"exporters": hydee.ExporterNames(),
	})
}
