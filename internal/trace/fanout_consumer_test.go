package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"skynet/internal/core"
	"skynet/internal/fanout"
)

// validateFrame checks a delivered frame for tearing: the SSE framing
// must be complete, the payload must decode as one well-formed JSON
// document, and the document must carry the keys its kind promises. A
// frame whose buffer was recycled or overwritten while the subscriber
// held it fails here (and trips the race detector besides).
func validateFrame(f *fanout.Frame) error {
	b := f.Bytes()
	if !bytes.HasSuffix(b, []byte("\n\n")) {
		return fmt.Errorf("frame seq %d: missing SSE terminator", f.Seq())
	}
	i := bytes.Index(b, []byte("data: "))
	if i < 0 {
		return fmt.Errorf("frame seq %d: no data line", f.Seq())
	}
	var doc map[string]any
	if err := json.Unmarshal(b[i+len("data: "):len(b)-2], &doc); err != nil {
		return fmt.Errorf("frame seq %d kind %v: torn payload: %w", f.Seq(), f.Kind(), err)
	}
	var want []string
	switch f.Kind() {
	case fanout.KindSnapshot:
		want = []string{"tick", "incidents"}
	case fanout.KindDelta:
		want = []string{"tick", "time"}
	case fanout.KindResync:
		want = []string{"skipped", "resume_seq"}
	}
	for _, k := range want {
		if _, ok := doc[k]; !ok {
			return fmt.Errorf("frame seq %d kind %v: payload missing %q", f.Seq(), f.Kind(), k)
		}
	}
	return nil
}

// consumeAll drains a subscriber until the hub closes or ctx ends,
// validating every frame and checking delivery never moves backwards.
func consumeAll(ctx context.Context, sub *fanout.Subscriber) (frames int, err error) {
	var lastSeq uint64
	for {
		fs, werr := sub.Wait(ctx)
		if werr != nil {
			// Eviction is a legal outcome for any consumer the scheduler
			// starves — the property is that it is announced, not that it
			// cannot happen.
			if errors.Is(werr, context.Canceled) || errors.Is(werr, fanout.ErrClosed) || errors.Is(werr, fanout.ErrEvicted) {
				return frames, nil
			}
			return frames, werr
		}
		for _, f := range fs {
			if verr := validateFrame(f); verr != nil {
				sub.ReleaseAll(fs)
				return frames, verr
			}
			if f.Seq() < lastSeq {
				// Format before releasing: a released frame may already
				// be recycled, and its fields are no longer meaningful.
				err := fmt.Errorf("delivery moved backwards: %v seq %d after %d", f.Kind(), f.Seq(), lastSeq)
				sub.ReleaseAll(fs)
				return frames, err
			}
			lastSeq = f.Seq()
			frames++
		}
		sub.ReleaseAll(fs)
	}
}

// TestFanoutSlowConsumerProperty is the serving layer's slow-consumer
// property test, run against a real replay at workers {1, 2, 4, 8}
// (under -race this doubles as the hub's concurrency check against the
// parallel pipeline). Three consumer behaviors run concurrently with
// the publishing engine:
//
//   - a fast consumer that drains every frame and checks none is torn
//     and delivery never moves backwards;
//   - a stalling consumer that reads a little, stalls until the ring
//     has lapped it, and resumes — it must observe a drop-accounted
//     resync (first frame KindResync) or an eviction, never a gap that
//     goes unannounced;
//   - a dead consumer that never polls — the eviction scan must cut it
//     loose rather than let it pin hub memory.
//
// Throughout, the publisher must never block: the replay runs to
// completion on the main goroutine and publishes both per-tick frames
// regardless of what the consumers do.
func TestFanoutSlowConsumerProperty(t *testing.T) {
	gen := DefaultGenerateOptions()
	gen.Scenarios = 3
	gen.Window = 20 * time.Minute
	g, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	const ring = 32
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			hub := fanout.NewHub(fanout.Config{Ring: ring, EvictAfter: 2 * ring})
			defer hub.Close()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup

			// Fast consumer.
			fast, err := hub.Subscribe(fanout.SubscribeOptions{Cursor: -1})
			if err != nil {
				t.Fatal(err)
			}
			var fastFrames int
			var fastErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				fastFrames, fastErr = consumeAll(ctx, fast)
			}()

			// Stalling consumer: one batch, then sleep until the ring has
			// lapped its cursor (or the replay ends), then one final poll.
			stall, err := hub.Subscribe(fanout.SubscribeOptions{Cursor: -1})
			if err != nil {
				t.Fatal(err)
			}
			replayDone := make(chan struct{})
			var stallOutcome string
			var stallErr error
			var stallWg sync.WaitGroup
			stallWg.Add(1)
			go func() {
				defer stallWg.Done()
				fs, werr := stall.Wait(ctx)
				if werr != nil {
					stallErr = fmt.Errorf("first batch: %w", werr)
					return
				}
				cursor := fs[len(fs)-1].Seq()
				stall.ReleaseAll(fs)
				// Stall until lapped. The replay publishes 2 frames per
				// tick, so this resolves quickly; the replayDone fallback
				// keeps the test bounded either way.
				lapped := func() bool { return hub.StatsSnapshot().HeadSeq > cursor+2*ring }
				for !lapped() {
					select {
					case <-replayDone:
					case <-time.After(time.Millisecond):
						continue
					}
					break
				}
				fs, _, perr := stall.Poll()
				switch {
				case errors.Is(perr, fanout.ErrEvicted):
					stallOutcome = "evicted"
				case perr != nil:
					stallErr = fmt.Errorf("post-stall poll: %w", perr)
				case lapped():
					// The gap must be announced: resync notice first, and
					// everything delivered after it intact.
					if len(fs) == 0 || fs[0].Kind() != fanout.KindResync {
						stallErr = fmt.Errorf("lapped consumer resumed without a resync notice (%d frames)", len(fs))
						stall.ReleaseAll(fs)
						return
					}
					for _, f := range fs {
						if verr := validateFrame(f); verr != nil {
							stallErr = verr
							break
						}
					}
					stall.ReleaseAll(fs)
					stallOutcome = "resynced"
				default:
					// Replay ended before the ring lapped the cursor; a
					// plain in-ring delivery is correct here.
					for _, f := range fs {
						if verr := validateFrame(f); verr != nil {
							stallErr = verr
							break
						}
					}
					stall.ReleaseAll(fs)
					stallOutcome = "caught-up"
				}
			}()

			// Dead consumer: subscribes, never polls.
			dead, err := hub.Subscribe(fanout.SubscribeOptions{Cursor: -1})
			if err != nil {
				t.Fatal(err)
			}

			cfg := core.DefaultConfig()
			cfg.Workers = workers
			if _, err := ReplayWithOptions(g.Alerts, g.Topo, cfg, ReplayOptions{
				Fanout: hub,
			}); err != nil {
				t.Fatal(err)
			}
			close(replayDone)
			stallWg.Wait() // before Close: the final poll must see a live hub

			// One ring frame (the delta) per tick; the snapshot replaces a
			// side slot. Publishes below tick count would mean a blocked or
			// skipped publish.
			st := hub.StatsSnapshot()
			if st.Ticks == 0 || st.Published < st.Ticks {
				t.Fatalf("publisher starved: %d frames over %d ticks", st.Published, st.Ticks)
			}

			// The dead consumer lagged by far more than EvictAfter, so the
			// amortized eviction scan must have removed it by now.
			if _, _, perr := dead.Poll(); !errors.Is(perr, fanout.ErrEvicted) {
				t.Errorf("dead consumer not evicted after %d publishes: err=%v", st.Published, perr)
			}

			cancel()
			hub.Close()
			wg.Wait()

			if fastErr != nil {
				t.Errorf("fast consumer: %v", fastErr)
			}
			if fastFrames == 0 {
				t.Error("fast consumer received no frames")
			}
			if stallErr != nil {
				t.Errorf("stalling consumer: %v", stallErr)
			}
			if stallOutcome == "" {
				t.Error("stalling consumer reached no outcome")
			}
			if st.Evictions == 0 {
				t.Errorf("no evictions recorded despite a dead consumer (stats %+v)", st)
			}
			if stallOutcome == "resynced" && st.Resyncs == 0 {
				t.Errorf("consumer resynced but resyncs_total is 0 (stats %+v)", st)
			}
			// Resyncs skip frames, and every skipped frame must be
			// accounted in the per-kind drop counters.
			if st.Resyncs > 0 && st.DroppedTotal == 0 {
				t.Errorf("resyncs skipped frames but dropped_total is 0 (stats %+v)", st)
			}
		})
	}
}
