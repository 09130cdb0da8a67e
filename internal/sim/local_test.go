package sim

import (
	"fmt"
	"testing"
)

type localA struct{ n int }
type localB struct{ n int }

// TestLocalIsOnePerEnvAndType: Local gives each Env one value per type, the
// same one on every call, distinct across Envs and across types (two types of
// one shape included), and costs no allocation once made.
func TestLocalIsOnePerEnvAndType(t *testing.T) {
	e1, e2 := NewEnv(1), NewEnv(2)
	a1 := Local[localA](e1)
	if Local[localA](e1) != a1 {
		t.Fatal("a second call made a second value")
	}
	a2 := Local[localA](e2)
	if a2 == a1 {
		t.Fatal("two Envs share a value")
	}
	b1 := Local[localB](e1)
	a1.n, b1.n = 1, 2
	if *a1 != (localA{1}) || *b1 != (localB{2}) || *a2 != (localA{}) {
		t.Fatalf("values overlap: a1=%v b1=%v a2=%v", *a1, *b1, *a2)
	}
	if n := testing.AllocsPerRun(100, func() {
		Local[localA](e1)
		Local[localB](e1)
	}); n != 0 {
		t.Fatalf("%.1f allocations per lookup after the first", n)
	}
}

// TestGroupLocalPerPartition: partitions of a ring run on four workers, each
// proc counting its turns in its partition's value; whichever worker resumes a
// partition in a window finds the value the previous window left (the race
// detector checks the hand-over), and no count leaks into another partition.
func TestGroupLocalPerPartition(t *testing.T) {
	const parts, rounds = 6, 200
	g := NewGroup()
	envs := make([]*Env, parts)
	ids := make([]PartitionID, parts)
	for i := range envs {
		envs[i] = NewEnv(int64(i))
		ids[i] = g.Add(fmt.Sprint("p", i), envs[i])
	}
	links := make([]*XLink, parts)
	for i := range links {
		links[i] = g.Connect(fmt.Sprint("l", i), ids[i], ids[(i+1)%parts], 5*Microsecond)
	}
	for i, env := range envs {
		out, in := links[i], links[(i+parts-1)%parts]
		env.Spawn("turns", func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.Wait(Duration(1+i) * Microsecond)
				Local[localA](p.Env()).n++
				out.Send(p, k)
				in.Recv(p)
			}
		})
	}
	if err := g.Run(4, MaxTime); err != nil {
		t.Fatal(err)
	}
	defer g.Shutdown()
	for i, env := range envs {
		if n := Local[localA](env).n; n != rounds {
			t.Errorf("partition %d counted %d turns, want %d", i, n, rounds)
		}
	}
	if g.Stats().Rounds < rounds {
		t.Fatalf("%d barrier rounds; the workers never traded partitions", g.Stats().Rounds)
	}
}
