package server

// Sweeps and explorations are submissions, and share one lifecycle: open
// registers one under its manifest id and journals the manifest, a
// goroutine of its own drives it to its end (unless it ended at once),
// settleLocked gives it its one final reply, retire stores that reply in
// the journal's done/, and one GET handler answers for it throughout. What differs by kind is only what
// registers on submit, what drives the submission (a sweep's watcher, an
// exploration's driver) and how its live view renders.

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/results"
)

// submission is one sweep or exploration, registered under its manifest
// id, whose "<kind>-" prefix tells the two apart. A sweep references its
// member runs until every one is terminal; an exploration keeps the view
// its driver refreshes.
type submission struct {
	id string
	// keys are a sweep's members, in grid order.
	keys []string
	// hits marks, member by member, the ones already finished when this
	// sweep was submitted — cache hits from this sweep's point of view,
	// without mutating the shared run state. A recovered sweep has none.
	hits []bool
	// view is an exploration's latest progress snapshot, refreshed after
	// every batch and reduced to its outcome when the driver finishes.
	view exploreView
	// final is the rendered terminal reply, set once by settleLocked: every
	// later GET and the journal's done/<id>.json are these bytes.
	final []byte
	// retired is made with final and closed once retire has stored final
	// in the journal; a GET serves final only then, so a terminal reply
	// it answered outlives a crash.
	retired chan struct{}
	// evictable is set by retire once the registry may drop the submission.
	evictable bool
}

// liveView copies out a live submission's view under s.mu and returns its
// renderer, to run once s.mu is released. It returns nil instead when it
// settled the submission, which its caller must then retire.
type liveView func(*submission) func() []byte

// open registers a sweep or exploration and journals its manifest, and
// only then starts drive on its own goroutine to take the submission to
// its end. A new submission's id is derived from its manifest m; a
// recovered one passes a nil m and the id its manifest is filed under.
// register fills the submission in under s.mu, once closed is checked, and
// live renders the reply to the submit from it. When live settles the
// submission at once (a sweep whose every member was finished), open
// retires it instead of starting drive, and returns its final reply.
func (s *Server) open(m *results.Manifest, id string, register func(*submission), live liveView, drive func(*submission)) ([]byte, error) {
	if m != nil {
		var err error
		if id, err = m.ID(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed
	}
	sub := &submission{id: id}
	register(sub)
	render := live(sub)
	s.addSubmissionLocked(sub)
	if render != nil {
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if m != nil && s.journaling() {
		_ = s.opts.Journal.PutManifest(id, *m)
	}
	if render == nil { // settled at once: nothing is left to drive
		s.retire(sub)
		return sub.final, nil
	}
	go func() {
		defer s.wg.Done()
		drive(sub)
	}()
	return render(), nil
}

// writeOpened answers the POST of a sweep or exploration with what open
// returned: 202 and its reply, 503 once the server is closing, 500 when its
// manifest has no id.
func writeOpened(w http.ResponseWriter, body []byte, err error, submitted *atomic.Uint64) {
	switch {
	case errors.Is(err, errClosed):
		httpError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
	default:
		submitted.Add(1)
		writeBody(w, http.StatusAccepted, body)
	}
}

// addSubmissionLocked registers a new sweep or exploration and drops the
// oldest evictable ones beyond the bound. Callers must hold s.mu.
func (s *Server) addSubmissionLocked(sub *submission) {
	s.subs[sub.id] = sub
	s.subOrder = append(s.subOrder, sub.id)
	for i := 0; len(s.subOrder) > s.opts.maxSubmissions && i < len(s.subOrder); {
		if id := s.subOrder[i]; !s.subs[id].evictable {
			i++
		} else {
			delete(s.subs, id)
			s.subOrder = slices.Delete(s.subOrder, i, i+1)
		}
	}
}

// settleLocked gives a submission its final reply, once (nil when the
// reply could not be encoded: the status goes alone). Whoever settles a
// submission retires it once s.mu is released. Callers must hold s.mu.
func settleLocked(sub *submission, final []byte) {
	sub.final = final
	sub.retired = make(chan struct{})
}

// retire stores a submission's final reply in the journal's done/ and
// retires its manifest, and then releases the GETs waiting on it. The
// registry may forget the submission from then on (evictable): at once
// without a journal, where nothing answers an evicted id, and with one
// only once the stored reply that answers it is written. One whose write
// failed stays registered, and its manifest open for the next process to
// recover. Exactly one caller retires each submission: whoever settled
// it, after releasing s.mu.
func (s *Server) retire(sub *submission) {
	stored := s.opts.Journal == nil
	if s.journaling() {
		err := s.opts.Journal.RetireManifest(sub.id, sub.final)
		if stored = err == nil; !stored {
			log.Printf("ringsimd: retire manifest %s: %v", sub.id, err)
		}
	}
	s.mu.Lock()
	sub.evictable = stored
	s.mu.Unlock()
	close(sub.retired)
}

// getSubmission returns the GET handler of one kind of submission. It
// answers the live view while the submission runs (live may settle a
// sweep, and this GET then retires it), the final reply once it has
// retired, and the reply stored in done/ for an id the registry forgot
// (see serveManifestFinal). An id without the kind's prefix is another
// kind's, or nobody's: 404 either way.
func (s *Server) getSubmission(kind, noun string, live liveView) http.HandlerFunc {
	unknown := fmt.Errorf("unknown %s id", noun)
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !strings.HasPrefix(id, kind+"-") {
			httpError(w, http.StatusNotFound, unknown)
			return
		}
		s.mu.Lock()
		sub := s.subs[id]
		settled := sub != nil && sub.retired != nil
		var render func() []byte
		if sub != nil && !settled {
			render = live(sub)
		}
		s.mu.Unlock()
		switch {
		case sub == nil:
			if !s.serveManifestFinal(w, id) {
				httpError(w, http.StatusNotFound, unknown)
			}
			return
		case render != nil:
			writeBody(w, http.StatusOK, render())
			return
		case settled:
			<-sub.retired
		default: // live settled it
			s.retire(sub)
		}
		writeBody(w, http.StatusOK, sub.final)
	}
}
