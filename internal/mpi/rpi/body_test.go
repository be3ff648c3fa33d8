package rpi

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// These tests pin the ownership of retained message bodies (see Body)
// by pool identity, as the SCTP reassembler's leak test does: a
// recycled buffer is observable coming back out of wire.GetBuf, exactly
// as many times as it was put.

// bodySize picks a pool class (4 KiB) no other test in the package uses.
const bodySize = 3000

// poolDropsPuts is set under the race detector (body_race_test.go).
var poolDropsPuts bool

// recycledCount drains the body's pool class and reports how many times
// raw came back out of it. The drained buffers are kept, not returned,
// so each pooled entry is seen once.
func recycledCount(raw []byte) int {
	n := 0
	for i := 0; i < 32; i++ {
		if b := wire.GetBuf(bodySize); &b[0] == &raw[0] {
			n++
		}
	}
	return n
}

// observePool makes pool round trips observable for the rest of the
// test: no GC (which would empty the pool) and one P (a Put parks the
// buffer in the current P's private slot, which a Get on another P
// cannot see).
func observePool(t *testing.T) {
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}

// expectRecycledOnce fails unless raw came back out of the pool exactly
// once (at most once where the pool may drop a Put).
func expectRecycledOnce(t *testing.T, raw []byte, when string) {
	t.Helper()
	if n := recycledCount(raw); n > 1 || (n == 0 && !poolDropsPuts) {
		t.Fatalf("body recycled %d time(s) %s, want exactly 1", n, when)
	}
}

func pattern(fill byte) []byte {
	p := make([]byte, bodySize)
	for i := range p {
		p[i] = fill + byte(i)
	}
	return p
}

// testSender is one of the two sender queues (message-oriented
// MsgSender, byte-stream OutQueue) behind a blockable transport that
// records the body bytes it accepted.
type testSender struct {
	name    string
	blocked bool
	sent    []byte
	send    func(env Envelope, body *Body)
	flush   func()
	drop    func() // discard everything queued for the peer
}

func newTestSenders() []*testSender {
	ms := &testSender{name: "MsgSender"}
	s := NewMsgSender(1024, false, NewCounters(), func(key MsgKey, ppid uint32, data []byte) error {
		if ms.blocked {
			return transport.ErrWouldBlock
		}
		if ppid == PPIDBody {
			ms.sent = append(ms.sent, data...)
		}
		return nil
	})
	key := MsgKey{Rank: 1}
	ms.send = func(env Envelope, body *Body) { s.Send(key, env, body, nil) }
	ms.flush = func() { s.FlushActive() }
	ms.drop = func() { s.DropPeer(1) }

	oq := &testSender{name: "OutQueue"}
	var q OutQueue
	tryWrite := func(p []byte) (int, error) {
		if oq.blocked {
			return 0, transport.ErrWouldBlock
		}
		oq.sent = append(oq.sent, p...)
		return len(p), nil
	}
	oq.send = func(env Envelope, body *Body) { q.Push(env, body, nil) }
	oq.flush = func() { q.Flush(tryWrite, func(error) {}) }
	oq.drop = q.Reset
	return []*testSender{ms, oq}
}

// sentBody strips the envelope bytes the byte-stream queue writes in
// front of the body.
func (ts *testSender) sentBody() []byte {
	if ts.name == "OutQueue" && len(ts.sent) >= EnvelopeSize {
		return ts.sent[EnvelopeSize:]
	}
	return ts.sent
}

func newTestSessions() *Sessions {
	var e Engine
	e.SetupEngine(0, 2, CostModel{})
	return NewSessions(&e, sim.New(1), 2, SessionConfig{})
}

// ackUpTo delivers an unsessioned envelope from peer 1 whose SAck
// prunes our retention through seq.
func ackUpTo(ss *Sessions, seq uint64) {
	env := Envelope{Kind: KindSyncAck, SAck: seq}
	ss.Accept(1, &env)
}

// stamp sends one body-carrying message to peer 1 through the session
// layer, then overwrites the caller's slice as MPI allows once the send
// has completed.
func stamp(ss *Sessions, fill byte) (Envelope, *Body, bool) {
	caller := pattern(fill)
	env := Envelope{Kind: KindShort, Length: bodySize, Rank: 0}
	kept, up := ss.StampOut(1, &env, caller)
	for i := range caller {
		caller[i] = 0xEE
	}
	return env, kept, up
}

func TestRetainedBodyRecycledOnceAfterBothHolders(t *testing.T) {
	observePool(t)
	for _, order := range []string{"prune_first", "sender_first"} {
		for _, ts := range newTestSenders() {
			t.Run(order+"/"+ts.name, func(t *testing.T) {
				ss := newTestSessions()
				ts.blocked = true
				env, kept, up := stamp(ss, 1)
				if !up || kept == nil {
					t.Fatalf("StampOut = (%v, %v), want a body to send", kept, up)
				}
				raw := kept.Bytes()
				ts.send(env, kept)
				first, second := func() { ackUpTo(ss, env.SSeq) }, func() { ts.blocked = false; ts.flush() }
				if order == "sender_first" {
					first, second = second, first
				}
				first()
				if n := recycledCount(raw); n != 0 {
					t.Fatalf("body recycled %d time(s) while one holder remains", n)
				}
				second()
				expectRecycledOnce(t, raw, "after both holders dropped it")
				if !bytes.Equal(ts.sentBody(), pattern(1)) {
					t.Fatal("transport received bytes other than the body as sent")
				}
				if ss.Get(1).Retention() != 0 {
					t.Fatalf("retention = %d after the ack", ss.Get(1).Retention())
				}
			})
		}
	}
}

// TestReplayedBodyPrunedWhileQueued: a message stamped while the
// session was down reaches the sender only through the replay gap. A
// SAck that prunes it while the replay is still queued must leave the
// sender's copy intact; the buffer is recycled once the sender is done.
func TestReplayedBodyPrunedWhileQueued(t *testing.T) {
	observePool(t)
	for _, ts := range newTestSenders() {
		t.Run(ts.name, func(t *testing.T) {
			ss := newTestSessions()
			ss.MarkLost(1)
			env, kept, up := stamp(ss, 2)
			if up {
				t.Fatal("StampOut reported a down session as up")
			}
			raw := kept.Bytes()
			gap := ss.OnReconnectAck(1, Envelope{Kind: KindReconnectAck, SEpoch: 1})
			if len(gap) != 1 || gap[0].Body != kept {
				t.Fatalf("replay gap = %d entries, want the one retained body", len(gap))
			}
			ts.blocked = true
			ts.send(gap[0].Env, gap[0].Body)
			ss.Resume(1)
			ackUpTo(ss, env.SSeq)
			if n := recycledCount(raw); n != 0 {
				t.Fatalf("queued replay's body recycled %d time(s) under the sender", n)
			}
			ts.blocked = false
			ts.flush()
			if !bytes.Equal(ts.sentBody(), pattern(2)) {
				t.Fatal("replay sent bytes other than the retained body")
			}
			expectRecycledOnce(t, raw, "after the replay finished")
		})
	}
}

// TestDroppedSenderNeverRecycles: a sender queue discarded with its
// peer (session loss) never drops its hold, so neither a later prune
// nor the replay that follows can return the buffer to the pool.
func TestDroppedSenderNeverRecycles(t *testing.T) {
	observePool(t)
	for _, ts := range newTestSenders() {
		t.Run(ts.name, func(t *testing.T) {
			ss := newTestSessions()
			ts.blocked = true
			env, kept, _ := stamp(ss, 3)
			raw := kept.Bytes()
			ts.send(env, kept)
			ss.MarkLost(1)
			ts.drop()
			gap := ss.OnReconnectAck(1, Envelope{Kind: KindReconnectAck, SEpoch: 1})
			for _, rt := range gap {
				ts.send(rt.Env, rt.Body)
			}
			ss.Resume(1)
			ts.blocked = false
			ts.flush()
			ackUpTo(ss, env.SSeq)
			if n := recycledCount(raw); n != 0 {
				t.Fatalf("body recycled %d time(s) after its sender queue was dropped", n)
			}
			if !bytes.Equal(ts.sentBody(), pattern(3)) {
				t.Fatal("replay after the drop sent bytes other than the retained body")
			}
		})
	}
}
