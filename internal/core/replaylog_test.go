package core

import (
	"runtime"
	"testing"

	"repro/internal/join"
	"repro/internal/matrix"
	"repro/internal/storage"
)

// TestReplayLogRecordsEverySentTuple pins the replay log's publication
// order on a multi-core schedule: every tuple accepted by SendBatch
// must appear in the log exactly once, intact. The log copies items
// out of the envelope the sender hands to a reshuffler's ring; if the
// copy happened after the send, a reshuffler on another core could
// consume and recycle (zero) the envelope first, and the log would
// hold zeroed items in place of real ones.
func TestReplayLogRecordsEverySentTuple(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const (
		n     = 40000
		batch = 16
	)
	op := NewOperator(Config{
		J: 8, Pred: join.EquiJoin("eq", nil), Seed: 5,
		Backend: storage.NewMemBackend(),
		Emit:    func(join.Pair) {},
	})
	op.Start()
	// One feeder: SendBatch stamps Seq 1..n in send order, and Aux
	// carries the same number, so a logged item is intact exactly when
	// its Seq and Aux agree and are non-zero.
	ts := make([]join.Tuple, 0, batch)
	for i := 1; i <= n; i++ {
		rel := matrix.SideR
		if i%2 == 0 {
			rel = matrix.SideS
		}
		ts = append(ts, join.Tuple{Rel: rel, Key: int64(i % 97), Aux: int64(i), Size: 8})
		if len(ts) == batch || i == n {
			if err := op.SendBatch(ts); err != nil {
				t.Fatalf("send: %v", err)
			}
			ts = ts[:0]
		}
	}
	if err := op.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	log := op.ReplayLog()
	if len(log.rings) < 2 {
		t.Fatalf("%d reshuffler rings, want several", len(log.rings))
	}
	seen := make([]bool, n+1)
	zeroed, torn, dup := 0, 0, 0
	for d := range log.rings {
		for _, it := range log.snapshotRing(d) {
			s := it.t.Seq
			switch {
			case s == 0:
				zeroed++
			case s > n || it.t.Aux != int64(s):
				torn++
			case seen[s]:
				dup++
			default:
				seen[s] = true
			}
		}
	}
	missing := 0
	for s := 1; s <= n; s++ {
		if !seen[s] {
			missing++
		}
	}
	if zeroed+torn+dup+missing != 0 {
		t.Fatalf("replay log: %d zeroed, %d torn, %d duplicated, %d missing of %d sent",
			zeroed, torn, dup, missing, n)
	}
}
