package redisapp

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
)

func newM(t *testing.T, os machine.OSKind) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.Config{Model: mem.Shared, OS: os})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// withStore runs body with a fresh store on a vanilla machine.
func withStore(t *testing.T, body func(task *kernel.Task, s *Store) error) {
	t.Helper()
	m := newM(t, machine.VanillaOS)
	_, err := m.RunSingle("store", mem.NodeX86, func(task *kernel.Task) error {
		arena, err := NewArena(task, 16<<20, "heap")
		if err != nil {
			return err
		}
		s, err := NewStore(task, arena, 64)
		if err != nil {
			return err
		}
		return body(task, s)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetGet(t *testing.T) {
	withStore(t, func(task *kernel.Task, s *Store) error {
		if err := s.Set(task, []byte("alpha"), []byte("one")); err != nil {
			return err
		}
		if err := s.Set(task, []byte("beta"), []byte("two")); err != nil {
			return err
		}
		got, err := s.Get(task, []byte("alpha"))
		if err != nil {
			return err
		}
		if string(got) != "one" {
			t.Errorf("Get(alpha) = %q", got)
		}
		// Overwrite.
		if err := s.Set(task, []byte("alpha"), []byte("uno")); err != nil {
			return err
		}
		got, _ = s.Get(task, []byte("alpha"))
		if string(got) != "uno" {
			t.Errorf("after overwrite Get(alpha) = %q", got)
		}
		// Missing key.
		got, err = s.Get(task, []byte("gamma"))
		if err != nil || got != nil {
			t.Errorf("Get(missing) = %q, %v", got, err)
		}
		return nil
	})
}

func TestSetGetLargeValuesAndCollisions(t *testing.T) {
	withStore(t, func(task *kernel.Task, s *Store) error {
		// More keys than buckets forces chain walks.
		const n = 200
		for i := 0; i < n; i++ {
			key := []byte{byte('a' + i%26), byte('0' + i/26)}
			val := bytes.Repeat([]byte{byte(i)}, 100+i)
			if err := s.Set(task, key, val); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			key := []byte{byte('a' + i%26), byte('0' + i/26)}
			got, err := s.Get(task, key)
			if err != nil {
				return err
			}
			want := bytes.Repeat([]byte{byte(i)}, 100+i)
			if !bytes.Equal(got, want) {
				t.Errorf("key %q: got %d bytes, first=%v", key, len(got), got[:1])
				return nil
			}
		}
		return nil
	})
}

func TestListPushPop(t *testing.T) {
	withStore(t, func(task *kernel.Task, s *Store) error {
		key := []byte("mylist")
		// RPUSH a,b,c; LPUSH z -> z,a,b,c
		for _, v := range []string{"a", "b", "c"} {
			if err := s.Push(task, key, []byte(v), false); err != nil {
				return err
			}
		}
		if err := s.Push(task, key, []byte("z"), true); err != nil {
			return err
		}
		if n, _ := s.LLen(task, key); n != 4 {
			t.Errorf("LLen = %d, want 4", n)
		}
		if v, _ := s.Pop(task, key, true); string(v) != "z" {
			t.Errorf("LPop = %q, want z", v)
		}
		if v, _ := s.Pop(task, key, false); string(v) != "c" {
			t.Errorf("RPop = %q, want c", v)
		}
		if v, _ := s.Pop(task, key, true); string(v) != "a" {
			t.Errorf("LPop = %q, want a", v)
		}
		if v, _ := s.Pop(task, key, true); string(v) != "b" {
			t.Errorf("LPop = %q, want b", v)
		}
		if v, _ := s.Pop(task, key, true); v != nil {
			t.Errorf("Pop on empty list = %q", v)
		}
		if n, _ := s.LLen(task, key); n != 0 {
			t.Errorf("LLen after drain = %d", n)
		}
		return nil
	})
}

func TestSAdd(t *testing.T) {
	withStore(t, func(task *kernel.Task, s *Store) error {
		key := []byte("myset")
		if n, err := s.SAdd(task, key, []byte("m1")); err != nil || n != 1 {
			t.Errorf("SAdd new = %d, %v", n, err)
		}
		if n, err := s.SAdd(task, key, []byte("m1")); err != nil || n != 0 {
			t.Errorf("SAdd dup = %d, %v", n, err)
		}
		if n, err := s.SAdd(task, key, []byte("m2")); err != nil || n != 1 {
			t.Errorf("SAdd second = %d, %v", n, err)
		}
		return nil
	})
}

func TestArenaExhaustion(t *testing.T) {
	m := newM(t, machine.VanillaOS)
	_, err := m.RunSingle("arena", mem.NodeX86, func(task *kernel.Task) error {
		arena, err := NewArena(task, 4096, "tiny")
		if err != nil {
			return err
		}
		if _, err := arena.Alloc(task, 4000); err != nil {
			return err
		}
		_, err = arena.Alloc(task, 200)
		if err == nil {
			t.Error("over-allocation accepted")
		}
		var se *StoreError
		if !errors.As(err, &se) || se.Kind != ErrArenaExhausted {
			t.Errorf("over-allocation error = %v, want *StoreError{ErrArenaExhausted}", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseCommand(t *testing.T) {
	for _, n := range CommandNames {
		c, err := ParseCommand(n)
		if err != nil {
			t.Fatal(err)
		}
		if c.String() != n {
			t.Errorf("round trip %q -> %v", n, c)
		}
	}
	if _, err := ParseCommand("flushall"); err == nil {
		t.Error("unknown command accepted")
	}
}

func TestBenchRunGetStramash(t *testing.T) {
	m := newM(t, machine.StramashOS)
	res, err := Run(m, BenchParams{Command: CmdGet, Requests: 40, PayloadBytes: 256, Keys: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("%d GET misses", res.Errors)
	}
	if res.CyclesPerRequest <= 0 {
		t.Error("no per-request cost measured")
	}
}

func TestBenchAllCommandsStramash(t *testing.T) {
	type benchCase struct {
		name string
		p    BenchParams
	}
	var cases []benchCase
	for _, name := range CommandNames {
		cmd, _ := ParseCommand(name)
		cases = append(cases, benchCase{name, BenchParams{Command: cmd, Requests: 24, PayloadBytes: 256, Keys: 8}})
	}
	// A SADD payload shorter than the 32-byte member cap: Validate accepts
	// it, so the executor must take the whole payload as the member.
	cases = append(cases, benchCase{"sadd-short-payload", BenchParams{Command: CmdSAdd, Requests: 4, PayloadBytes: 8, Keys: 2}})
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			m := newM(t, machine.StramashOS)
			res, err := Run(m, c.p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Errorf("%d errors", res.Errors)
			}
		})
	}
}

func TestBenchSpeedupShape(t *testing.T) {
	// Figure 14's shape: Stramash > Popcorn-SHM > Popcorn-TCP throughput.
	per := func(os machine.OSKind) float64 {
		m := newM(t, os)
		res, err := Run(m, BenchParams{Command: CmdGet, Requests: 30, PayloadBytes: 256, Keys: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res.CyclesPerRequest
	}
	tcp := per(machine.PopcornTCP)
	shm := per(machine.PopcornSHM)
	str := per(machine.StramashOS)
	if !(str < shm && shm < tcp) {
		t.Errorf("per-request cycles: stramash=%.0f shm=%.0f tcp=%.0f, want strictly increasing", str, shm, tcp)
	}
}
