package sim

import "fmt"

// Time is an absolute instant of virtual time, in nanoseconds since the
// start of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable instant; RunUntil(MaxTime) runs the
// simulation to completion.
const MaxTime = Time(1<<63 - 1)

// Seconds converts a float number of seconds into a Duration.
func Seconds(s float64) Duration { return Duration(s * float64(Second)) }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as float seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports d as float seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (t Time) String() string     { return fmt.Sprintf("%.6fs", t.Seconds()) }
func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
