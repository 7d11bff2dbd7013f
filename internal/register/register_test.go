package register

import (
	"fmt"
	"testing"

	"github.com/dsrepro/consensus/internal/linearize"
	"github.com/dsrepro/consensus/internal/sched"
)

func TestSWMRReadsBackWrites(t *testing.T) {
	_, err := sched.Run(sched.Config{N: 1, Seed: 1}, func(p *sched.Proc) {
		r := NewSWMR(0, 10)
		if got := r.Read(p); got != 10 {
			t.Errorf("initial Read = %d, want 10", got)
		}
		r.Write(p, 42)
		if got := r.Read(p); got != 42 {
			t.Errorf("Read after Write = %d, want 42", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSWMROwnerEnforced(t *testing.T) {
	r := NewSWMR(0, 0)
	if r.Owner() != 0 {
		t.Fatalf("Owner = %d, want 0", r.Owner())
	}
	_, err := sched.Run(sched.Config{N: 2, Seed: 1}, func(p *sched.Proc) {
		if p.ID() != 1 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic on non-owner write")
			}
		}()
		r.Write(p, 5)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSWMRPeekDoesNotStep(t *testing.T) {
	r := NewSWMR(0, 7)
	if r.Peek() != 7 { // no Proc, no step: must not block or panic
		t.Fatal("Peek returned wrong value")
	}
}

func TestToggledSWMRAlternatesBit(t *testing.T) {
	_, err := sched.Run(sched.Config{N: 1, Seed: 1}, func(p *sched.Proc) {
		r := NewToggledSWMR(0, 0)
		prev := r.Read(p)
		for i := 1; i <= 5; i++ {
			r.Write(p, 0) // same payload every time
			cur := r.Read(p)
			if cur.Toggle == prev.Toggle {
				t.Errorf("write %d did not flip toggle bit", i)
			}
			prev = cur
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDirect2WPartiesEnforced(t *testing.T) {
	r := NewDirect2W(0, 2, false)
	_, err := sched.Run(sched.Config{N: 3, Seed: 1}, func(p *sched.Proc) {
		switch p.ID() {
		case 0:
			r.Write(p, true)
		case 2:
			r.Read(p)
		case 1:
			defer func() {
				if recover() == nil {
					t.Error("expected panic for third-party access")
				}
			}()
			r.Read(p)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBloom2WSequentialSemantics(t *testing.T) {
	_, err := sched.Run(sched.Config{N: 2, Seed: 1}, func(p *sched.Proc) {
		if p.ID() != 0 {
			return
		}
		r := NewBloom2W(0, 1, true)
		if !r.Read(p) {
			t.Error("initial value lost")
		}
		r.Write(p, false)
		if r.Read(p) {
			t.Error("write by party 0 not visible")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBloom2WAlternatingWriters(t *testing.T) {
	r := NewBloom2W(0, 1, false)
	// Round-robin schedule: each pid alternates write(own bit) / read. With
	// the deterministic round-robin adversary semantics are still atomic;
	// here we just check a sequential-ish sanity pattern via one process at
	// a time using distinct runs.
	_, err := sched.Run(sched.Config{N: 2, Seed: 1}, func(p *sched.Proc) {
		for k := 0; k < 4; k++ {
			v := (p.ID()+k)%2 == 0
			r.Write(p, v)
			_ = r.Read(p) // value depends on interleaving; atomicity checked below
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBloom2WThirdPartyPanics(t *testing.T) {
	r := NewBloom2W(0, 1, false)
	_, err := sched.Run(sched.Config{N: 3, Seed: 1}, func(p *sched.Proc) {
		if p.ID() != 2 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for third-party access")
			}
		}()
		r.Read(p)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// checkTwoWriterAtomic runs two parties performing random reads and writes on
// one 2W2R register under a random adversary and verifies the recorded
// history linearizes. Values are encoded 0/1.
func checkTwoWriterAtomic(t *testing.T, name string, factory TwoWriterFactory, seeds int) {
	t.Helper()
	for seed := int64(0); seed < int64(seeds); seed++ {
		reg := factory(0, 1, false)
		var rec linearize.Recorder
		_, err := sched.Run(sched.Config{
			N: 2, Seed: seed, Adversary: sched.NewRandom(seed * 31),
		}, func(p *sched.Proc) {
			for k := 0; k < 6; k++ {
				if p.Rand().Intn(2) == 0 {
					v := p.Rand().Intn(2) == 1
					start := p.Now()
					reg.Write(p, v)
					rec.Add(linearize.Op{Proc: p.ID(), IsWrite: true, Val: b2i(v), Start: start, End: p.Now()})
				} else {
					start := p.Now()
					v := reg.Read(p)
					rec.Add(linearize.Op{Proc: p.ID(), Val: b2i(v), Start: start, End: p.Now()})
				}
			}
		})
		if err != nil {
			t.Fatalf("%s seed %d: Run: %v", name, seed, err)
		}
		ok, err := linearize.Check(rec.History(), 0)
		if err != nil {
			t.Fatalf("%s seed %d: Check: %v", name, seed, err)
		}
		if !ok {
			t.Fatalf("%s seed %d: non-linearizable history:\n%v", name, seed, rec.History())
		}
	}
}

func TestDirect2WIsAtomic(t *testing.T) { checkTwoWriterAtomic(t, "direct", DirectFactory, 150) }
func TestBloom2WConstructionIsAtomic(t *testing.T) {
	checkTwoWriterAtomic(t, "bloom", BloomFactory, 300)
}

// TestBloom2WWithReaderProcessIsAtomicForParties exercises interleavings where
// one party mostly reads while the other mostly writes — the access pattern
// the scannable memory's arrow registers actually use (scanner clears and
// reads, writer sets).
func TestBloom2WArrowUsagePattern(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		reg := NewBloom2W(0, 1, false)
		var rec linearize.Recorder
		_, err := sched.Run(sched.Config{
			N: 2, Seed: seed, Adversary: sched.NewRandom(seed*17 + 3),
		}, func(p *sched.Proc) {
			for k := 0; k < 5; k++ {
				if p.ID() == 0 { // scanner: clear then read
					start := p.Now()
					reg.Write(p, false)
					rec.Add(linearize.Op{Proc: 0, IsWrite: true, Val: 0, Start: start, End: p.Now()})
					start = p.Now()
					v := reg.Read(p)
					rec.Add(linearize.Op{Proc: 0, Val: b2i(v), Start: start, End: p.Now()})
				} else { // writer: set
					start := p.Now()
					reg.Write(p, true)
					rec.Add(linearize.Op{Proc: 1, IsWrite: true, Val: 1, Start: start, End: p.Now()})
				}
			}
		})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		ok, err := linearize.Check(rec.History(), 0)
		if err != nil {
			t.Fatalf("seed %d: Check: %v", seed, err)
		}
		if !ok {
			t.Fatalf("seed %d: non-linearizable arrow history:\n%v", seed, rec.History())
		}
	}
}

// TestSWMRConcurrentReadersAtomic records a history with one writer and three
// readers under random schedules and checks linearizability.
func TestSWMRConcurrentReadersAtomic(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		reg := NewSWMR(0, 0)
		var rec linearize.Recorder
		_, err := sched.Run(sched.Config{
			N: 4, Seed: seed, Adversary: sched.NewRandom(seed + 1000),
		}, func(p *sched.Proc) {
			if p.ID() == 0 {
				for k := 1; k <= 5; k++ {
					start := p.Now()
					reg.Write(p, k)
					rec.Add(linearize.Op{Proc: 0, IsWrite: true, Val: k, Start: start, End: p.Now()})
				}
				return
			}
			for k := 0; k < 4; k++ {
				start := p.Now()
				v := reg.Read(p)
				rec.Add(linearize.Op{Proc: p.ID(), Val: v, Start: start, End: p.Now()})
			}
		})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		ok, err := linearize.Check(rec.History(), 0)
		if err != nil {
			t.Fatalf("seed %d: Check: %v", seed, err)
		}
		if !ok {
			t.Fatalf("seed %d: non-linearizable SWMR history:\n%v", seed, rec.History())
		}
	}
}

func TestFreeRunningSWMRIsRaceFree(t *testing.T) {
	reg := NewSWMR(0, 0)
	_, err := sched.NewNative(sched.NativeOptions{}).Run(sched.Config{N: 4, Seed: 5}, func(p *sched.Proc) {
		for k := 0; k < 200; k++ {
			if p.ID() == 0 {
				reg.Write(p, k)
			} else {
				_ = reg.Read(p)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// The free-running tests below drive the registers' plain (non-native)
// storage from the native substrate's racing goroutines: every operation then
// takes the racing path under the register's mutex, which -race checks.

func TestFreeRunningDirect2WIsRaceFree(t *testing.T) {
	reg := NewDirect2W(0, 1, false)
	_, err := sched.NewNative(sched.NativeOptions{}).Run(sched.Config{N: 2, Seed: 5}, func(p *sched.Proc) {
		for k := 0; k < 200; k++ {
			reg.Write(p, k%2 == p.ID())
			_ = reg.Read(p)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFreeRunningDirectMRMWIsRaceFree(t *testing.T) {
	reg := NewDirectMRMW(0, false)
	_, err := sched.NewNative(sched.NativeOptions{}).Run(sched.Config{N: 4, Seed: 5}, func(p *sched.Proc) {
		for k := 0; k < 200; k++ {
			reg.Write(p, p.ID()*1000+k)
			if v := reg.Read(p); v < 0 || v >= 4000 {
				t.Errorf("p%d read unwritten value %d", p.ID(), v)
				return
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// pair is a two-word payload: a torn copy would show unequal halves.
type pair struct{ a, b int }

func TestFreeRunningToggledReadToIsRaceFree(t *testing.T) {
	reg := NewToggledSWMR(0, pair{})
	_, err := sched.NewNative(sched.NativeOptions{}).Run(sched.Config{N: 4, Seed: 5}, func(p *sched.Proc) {
		var dst pair // reader-owned scratch
		last := -1
		for k := 1; k <= 200; k++ {
			if p.ID() == 0 {
				reg.Write(p, pair{k, k})
				continue
			}
			_ = reg.ReadTo(p, nil)
			_ = reg.ReadTo(p, &dst)
			if dst.a != dst.b || dst.a < last {
				t.Errorf("p%d read torn or stale value %+v after %d", p.ID(), dst, last)
				return
			}
			last = dst.a
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestToggledReadToMatchesRead(t *testing.T) {
	_, err := sched.Run(sched.Config{N: 1, Seed: 1}, func(p *sched.Proc) {
		r := NewToggledSWMR(0, pair{})
		for k := 1; k <= 4; k++ {
			r.Write(p, pair{k, -k})
			want := r.Read(p)
			var got pair
			if tog := r.ReadTo(p, &got); tog != want.Toggle || got != want.Val {
				t.Errorf("ReadTo = (%v, %+v), Read = %+v", tog, got, want)
			}
			if tog := r.ReadTo(p, nil); tog != want.Toggle {
				t.Errorf("ReadTo(nil) toggle = %v, want %v", tog, want.Toggle)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ExampleNewSWMR() {
	_, _ = sched.Run(sched.Config{N: 1, Seed: 1}, func(p *sched.Proc) {
		r := NewSWMR(0, "init")
		r.Write(p, "hello")
		fmt.Println(r.Read(p))
	})
	// Output: hello
}
