package tiger

import (
	"errors"
	"fmt"
	"time"

	"tiger/internal/clock"
	"tiger/internal/core"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/recycle"
	"tiger/internal/trace"
	"tiger/internal/viewer"
)

// viewerSlack is how far ahead of its play deadline a viewer wants each
// block: the client's buffering.
const viewerSlack = 500 * time.Millisecond

// clockOf is the clock of the cluster's engine (shard 0's in a sharded
// cluster).
func clockOf(c *Cluster) clock.Clock { return clock.Sim{Eng: c.Eng} }

// Stream is one viewer's play of one file. A stream the replay loop
// started (RampTo) is re-armed at end of file: the same record, and its
// Viewer, carry the next play under a new Instance and viewer ID, and
// Done reads false again. A *Stream that Play returns to its caller is
// never re-armed.
type Stream struct {
	Viewer   *viewer.Viewer
	Instance msg.InstanceID
	File     msg.FileID

	cluster       *Cluster
	done          bool
	startBlock    int32
	loadAtRequest float64 // schedule load when the play was requested

	// OnEOF, if set, fires when the stream plays to end of file; drivers
	// use it to start a replay ("played it from beginning to end and
	// repeated", §5).
	OnEOF func(s *Stream)
}

// Play starts a new viewer on the given file at the given block. The
// request goes to the controller immediately; the viewer may wait in a
// cub's queue until a free slot passes under an ownership window.
func (c *Cluster) Play(file msg.FileID, startBlock int32) (*Stream, error) {
	return c.play(nil, file, startBlock)
}

// play starts a play on s, a finished replay-loop stream whose record
// and viewer are re-armed, or on a fresh record when s is nil.
func (c *Cluster) play(s *Stream, file msg.FileID, startBlock int32) (*Stream, error) {
	f, ok := c.Cfg.Files[file]
	if !ok {
		return nil, fmt.Errorf("tiger: unknown file %d", file)
	}
	c.nextViewer++
	vid := c.nextViewer
	if s == nil {
		s = &Stream{cluster: c}
		v := viewer.New(vid, clockOf(c), c.Cfg.Sched.BlockPlay, viewerSlack,
			c.machineFor(vid), c.Loss)
		v.OnFirstBlock, v.OnDone = s.firstBlock, s.eof
		if c.Opt.RestartStalled > 0 {
			v.StallThreshold = int32(c.Opt.RestartStalled)
			v.OnStalled = s.stalled
		}
		s.Viewer = v
	} else {
		s.Viewer.Reset(vid, c.machineFor(vid))
	}
	v := s.Viewer
	c.Net.RegisterViewer(vid, v)

	// The load this request joins includes starts still waiting for a
	// slot: they are ahead of it in the cubs' queues.
	loadAtRequest := float64(c.liveStreams()) / float64(c.Cfg.Sched.NumSlots)
	if loadAtRequest > 1 {
		loadAtRequest = 1
	}
	inst, err := c.Controller.StartPlay(vid, file, startBlock, int32(c.Opt.StreamBitrate))
	if err != nil {
		c.Net.UnregisterViewer(vid)
		return nil, err
	}
	s.Instance, s.File, s.startBlock, s.loadAtRequest, s.done = inst, file, startBlock, loadAtRequest, false
	c.streams[inst] = s

	v.Begin(inst, file, startBlock, int32(f.Blocks)-startBlock)
	// Close the block-lifecycle span at the client: margin of each
	// delivered piece against the viewer's play deadline, recorded under
	// the serving cub's label so per-cub receipt slack is comparable with
	// its insert/state/read/send stages. Not under sharding: the viewer
	// runs on shard 0 and must not reach into another shard's cub.
	// Assigned on every play, so a wrapper a caller chained onto the
	// previous play's viewer does not carry over.
	v.OnTimedDelivery = nil
	if c.sharded == nil {
		v.OnTimedDelivery = c.timedDeliveryFn
	}
	return s, nil
}

// firstBlock records the play's startup latency against the load its
// request joined (Figure 10).
func (s *Stream) firstBlock(lat time.Duration) {
	c := s.cluster
	c.StartupLatency.AddDuration(lat)
	c.StartupPoints = append(c.StartupPoints, StartupPoint{Load: s.loadAtRequest, Latency: lat})
}

// eof ends the play at its last deadline and fires OnEOF, which may
// re-arm s for the next play.
func (s *Stream) eof() {
	if s.done {
		return
	}
	s.finish()
	s.cluster.Controller.NotifyEOF(s.Instance)
	if s.OnEOF != nil {
		s.OnEOF(s)
	}
}

// stalled gives the play up and requests it again from its start on a
// fresh stream, as a real client would (Options.RestartStalled).
func (s *Stream) stalled() {
	if s.done {
		return
	}
	onEOF := s.OnEOF
	s.Stop()
	if ns, err := s.cluster.Play(s.File, s.startBlock); err == nil {
		ns.OnEOF = onEOF
	}
}

// timedDelivery reports the receipt step: the delivery's last byte
// against the viewer's play deadline, under the serving cub's name so
// its receipt slack is comparable with its other stages and the block's
// causal chain closes in that cub's log (see the OnTimedDelivery wiring
// in play). It is bound once, as Cluster.timedDeliveryFn.
func (c *Cluster) timedDelivery(d netsim.BlockDelivery, slack time.Duration) {
	if i := int(d.From); i >= 0 && i < len(c.Cubs) && c.sink.Wants(trace.Receipt) {
		c.sink.Emit(trace.Event{
			At: d.LastByte, Due: int64(d.LastByte) + int64(slack), Node: d.From, Kind: trace.Receipt,
			Instance: d.Instance, Viewer: d.Viewer, Block: d.Block, PlaySeq: d.PlaySeq,
			Mirror: d.Mirror, Part: d.Part, Slot: -1, Disk: -1,
		})
	}
}

// Stop sends the viewer's "stop playing" request through the controller
// (§4.1.2).
func (s *Stream) Stop() {
	if s.done {
		return
	}
	s.cluster.Controller.StopPlay(s.Instance)
	s.finish()
}

// Done reports whether the stream has ended (stopped or EOF).
func (s *Stream) Done() bool { return s.done }

func (s *Stream) finish() {
	s.done = true
	s.Viewer.End()
	st := s.Viewer.Stats()
	s.cluster.tallyOK += st.BlocksOK
	s.cluster.tallyLost += st.BlocksLost
	s.cluster.tallyMirror += st.MirrorBlocks
	s.cluster.oracle.release(s.Instance)
	delete(s.cluster.streams, s.Instance)
	s.cluster.Net.UnregisterViewer(s.Viewer.ID)
}

// PlayRandom starts a stream on a uniformly chosen file from block 0.
func (c *Cluster) PlayRandom() (*Stream, error) {
	file := msg.FileID(c.rng.Intn(c.Opt.NumFiles))
	return c.Play(file, 0)
}

// RampTo starts streams until target are running or queued, choosing
// random files, and leaves them looping: on EOF each viewer immediately
// replays a new random file, like the paper's workload. Requests are
// staggered by Options.RampSpacing, as the paper's client starts were.
// A looping stream's record is re-armed at each EOF, under a new
// Instance and viewer ID (see Stream).
func (c *Cluster) RampTo(target int) error {
	for c.liveStreams() < target {
		s, err := c.PlayRandom()
		if err != nil {
			return err
		}
		s.OnEOF = c.replayFn
		if c.Opt.RampSpacing > 0 && c.liveStreams() < target {
			// Jitter the spacing so request arrivals do not alias with
			// the schedule cycle; resonance would cluster slot
			// assignments and hence the free slots.
			sp := c.Opt.RampSpacing/2 + time.Duration(c.rng.Int63n(int64(c.Opt.RampSpacing)))
			c.RunFor(sp)
		}
	}
	return nil
}

// Start-retry policy for controller outages: a refused admission is
// retried with capped exponential backoff and seeded jitter, then
// abandoned — the set-top box gives up and the viewer calls back later.
const (
	startRetryBase = 250 * time.Millisecond
	startRetryCap  = 4 * time.Second
	startRetryMax  = 8
)

// failoverErr reports whether an admission error means the controller is
// temporarily unavailable (crashed, or a new incarnation still
// scavenging the schedule) rather than genuinely refusing the play.
func failoverErr(err error) bool {
	return errors.Is(err, core.ErrControllerDown) || errors.Is(err, core.ErrScavenging)
}

// retryStart re-issues a failover-refused start after a backed-off,
// jittered delay. attempt counts from 1; past startRetryMax the client
// abandons. start runs one admission attempt; started fires on success.
func (c *Cluster) retryStart(attempt int, start func() (*Stream, error), started func(*Stream)) {
	if attempt > startRetryMax {
		c.startAbandoned++
		return
	}
	c.startRetries++
	base := startRetryBase << uint(attempt-1)
	if base > startRetryCap {
		base = startRetryCap
	}
	d := base/2 + time.Duration(c.rng.Int63n(int64(base)))
	clockOf(c).After(d, func() {
		s, err := start()
		if err != nil {
			if failoverErr(err) {
				c.retryStart(attempt+1, start, started)
			}
			return
		}
		if started != nil {
			started(s)
		}
	})
}

// PlayRetrying starts a stream like Play, but treats a controller outage
// as transient: the admission is retried with capped exponential backoff
// and seeded jitter while a failover is in progress, and onStarted fires
// when an attempt succeeds. A non-failover refusal is returned at once;
// after startRetryMax backed-off attempts the client abandons (counted
// in tiger_client_start_abandons_total).
func (c *Cluster) PlayRetrying(file msg.FileID, startBlock int32, onStarted func(*Stream)) error {
	s, err := c.Play(file, startBlock)
	if err == nil {
		if onStarted != nil {
			onStarted(s)
		}
		return nil
	}
	if !failoverErr(err) {
		return err
	}
	c.retryStart(1, func() (*Stream, error) { return c.Play(file, startBlock) }, onStarted)
	return nil
}

// StartRetryStats reports how many admissions were retried around a
// controller outage and how many clients gave up.
func (c *Cluster) StartRetryStats() (retries, abandoned int64) {
	return c.startRetries, c.startAbandoned
}

// replay is the workload loop's OnEOF (bound once, as c.replayFn): it
// starts the next play on a random file. No caller holds old, a finished
// stream of the loop, so its record and viewer carry the next play; under
// the norecycle build they are poisoned and the play gets fresh ones.
func (c *Cluster) replay(old *Stream) {
	if c.rs.Phase == core.RestripeCutover {
		// Restripe cutover quiesce: hold the replay and re-issue it the
		// moment the generation flip completes (elastic.go).
		c.rs.DeferredReplays++
		return
	}
	if old != nil && !recycle.Reuse(old.Viewer) {
		recycle.Reuse(old) // poisoned too
		old = nil
	}
	s, err := c.play(old, msg.FileID(c.rng.Intn(c.Opt.NumFiles)), 0)
	if err != nil {
		if failoverErr(err) {
			// Controller outage: keep the viewer's intent alive across the
			// takeover with the client retry policy.
			c.retryStart(1, c.PlayRandom, func(s *Stream) { s.OnEOF = c.replayFn })
			return
		}
		if c.rs.Phase.Active() {
			// The joint admission limit refuses new plays while streams
			// admitted under the old generation still hold slot budget.
			// That budget frees continuously as they reach EOF, so keep
			// the offered load pressed against the limit by retrying
			// instead of giving up; jitter avoids retry convoys.
			d := replayRetry/2 + time.Duration(c.rng.Int63n(int64(replayRetry)))
			clockOf(c).After(d, func() { c.replay(nil) })
			return
		}
		return // admission refused; the viewer gives up
	}
	s.OnEOF = c.replayFn
}

// liveStreams counts streams not yet done (queued or active).
func (c *Cluster) liveStreams() int { return len(c.streams) }

// Streams returns the currently live streams, keyed by instance. A
// stream of the replay loop (RampTo) is re-armed at EOF: the same *Stream
// comes back under a new Instance and viewer ID, and Done reads false
// again.
func (c *Cluster) Streams() map[msg.InstanceID]*Stream { return c.streams }

// StopAll stops every live stream.
func (c *Cluster) StopAll() {
	for _, s := range c.streams {
		s.Stop()
	}
}
