package sim

import "testing"

func TestDiskWriteReadAccounting(t *testing.T) {
	env := NewEnv(1)
	// 100 MB/s write, 200 MB/s read, 10us per IO.
	d := NewDisk(env, "ssd", 100e6, 200e6, 10*Microsecond)
	env.Spawn("p", func(p *Proc) {
		writeDisk(p, d, 1_000_000) // 10ms stream + 10us
		readDisk(p, d, 1_000_000)  // 5ms stream + 10us
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := Time(10*Millisecond + 5*Millisecond + 20*Microsecond)
	if env.Now() != want {
		t.Fatalf("now=%v want %v", env.Now(), want)
	}
	if d.BytesWritten() != 1_000_000 || d.BytesRead() != 1_000_000 {
		t.Fatalf("w=%d r=%d", d.BytesWritten(), d.BytesRead())
	}
	if d.Writes() != 1 || d.Reads() != 1 {
		t.Fatalf("writes=%d reads=%d", d.Writes(), d.Reads())
	}
}

func TestDiskSerializesConcurrentIO(t *testing.T) {
	env := NewEnv(1)
	d := NewDisk(env, "ssd", 1e9, 1e9, 0)
	var done []Time
	for i := 0; i < 2; i++ {
		env.Spawn("p", func(p *Proc) {
			writeDisk(p, d, 1000)
			done = append(done, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != Time(Microsecond) || done[1] != Time(2*Microsecond) {
		t.Fatalf("done=%v", done)
	}
}
