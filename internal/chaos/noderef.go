package chaos

import (
	"context"
	"fmt"
	"time"

	"dra4wfms/internal/pool"
	"dra4wfms/internal/poolcluster"
)

// NodeRef wraps a poolcluster.NodeRef with the network's fault model
// for in-process clusters (benches and tests). src names the caller —
// usually the coordinator — and the destination is the wrapped node's
// ID, so Isolate/Cut/SetLink address real node IDs. Dropped hops return
// an error wrapping poolcluster.ErrNodeDown, which is exactly what the
// HTTP transport produces for a dead or partitioned remote node: the
// coordinator's failover path cannot tell chaos from reality, which is
// the point. Duplicate verdicts double-deliver Apply (the node's seq
// dedup must absorb it); corrupt verdicts flip a byte of the frame (the
// CRC framing must reject it).
func (n *Network) NodeRef(src string, ref poolcluster.NodeRef) poolcluster.NodeRef {
	return &nodeRef{net: n, src: src, ref: ref}
}

type nodeRef struct {
	net *Network
	src string
	ref poolcluster.NodeRef
}

func (r *nodeRef) ID() string { return r.ref.ID() }

// judge rolls the hop verdict and serves the delay; it reports an
// ErrNodeDown-wrapping error on drop.
func (r *nodeRef) judge(ctx context.Context) (Verdict, error) {
	v := r.net.Judge(r.src, r.ref.ID())
	if v.Delay > 0 {
		if ctx == nil {
			time.Sleep(v.Delay)
		} else {
			timer := time.NewTimer(v.Delay)
			select {
			case <-ctx.Done():
				timer.Stop()
				return v, ctx.Err()
			case <-timer.C:
			}
		}
	}
	if v.Drop {
		return v, fmt.Errorf("%w: chaos dropped hop %s → %s", poolcluster.ErrNodeDown, r.src, r.ref.ID())
	}
	return v, nil
}

func (r *nodeRef) Apply(ctx context.Context, rec poolcluster.Record) error {
	v, err := r.judge(ctx)
	if err != nil {
		return err
	}
	if v.Corrupt && len(rec.Frame) > 0 {
		frame := append([]byte(nil), rec.Frame...)
		frame[r.net.CorruptIndex(len(frame))] ^= 0x40
		rec.Frame = frame
	}
	if v.Dup {
		if err := r.ref.Apply(ctx, rec); err != nil {
			return err
		}
	}
	if err := r.ref.Apply(ctx, rec); err != nil || !v.AckLoss {
		return err
	}
	return fmt.Errorf("%w: chaos lost the ack of hop %s → %s", poolcluster.ErrNodeDown, r.src, r.ref.ID())
}

func (r *nodeRef) AppliedSeq(region string) (uint64, error) {
	if _, err := r.judge(nil); err != nil {
		return 0, err
	}
	return r.ref.AppliedSeq(region)
}

func (r *nodeRef) RecordsSince(region string, after uint64) ([]poolcluster.Record, bool, error) {
	if _, err := r.judge(nil); err != nil {
		return nil, false, err
	}
	return r.ref.RecordsSince(region, after)
}

func (r *nodeRef) Snapshot(region, start, end string) ([]pool.KeyValue, uint64, error) {
	if _, err := r.judge(nil); err != nil {
		return nil, 0, err
	}
	return r.ref.Snapshot(region, start, end)
}

func (r *nodeRef) Import(region string, kvs []pool.KeyValue, seq uint64) error {
	if _, err := r.judge(nil); err != nil {
		return err
	}
	return r.ref.Import(region, kvs, seq)
}

func (r *nodeRef) Status() (poolcluster.NodeStatus, error) {
	if _, err := r.judge(nil); err != nil {
		return poolcluster.NodeStatus{}, err
	}
	return r.ref.Status()
}

func (r *nodeRef) Get(ctx context.Context, at poolcluster.Barrier, row, family, qualifier string) ([]byte, bool, error) {
	if _, err := r.judge(ctx); err != nil {
		return nil, false, err
	}
	return r.ref.Get(ctx, at, row, family, qualifier)
}

func (r *nodeRef) GetRow(at poolcluster.Barrier, row string) ([]pool.KeyValue, error) {
	if _, err := r.judge(nil); err != nil {
		return nil, err
	}
	return r.ref.GetRow(at, row)
}

func (r *nodeRef) Scan(ctx context.Context, at poolcluster.Barrier, opts pool.ScanOptions) ([]pool.KeyValue, error) {
	if _, err := r.judge(ctx); err != nil {
		return nil, err
	}
	return r.ref.Scan(ctx, at, opts)
}

var _ poolcluster.NodeRef = (*nodeRef)(nil)
