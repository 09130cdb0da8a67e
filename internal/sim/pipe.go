package sim

// Disk is a block device model: each operation pays a fixed per-IO latency
// and is serialized against the device's bandwidth (distinct read and write
// rates). It approximates the sequential behaviour of a SATA SSD under the
// large-block workloads the paper uses.
type Disk struct {
	env  *Env
	name string

	WriteBytesPerSec float64
	ReadBytesPerSec  float64
	PerIOLatency     Duration

	freeAt       Time
	bytesWritten int64
	bytesRead    int64
	writes       int64
	reads        int64
}

// NewDisk returns a disk with the given sequential write/read bandwidths
// (bytes/second) and per-IO latency.
func NewDisk(env *Env, name string, writeBPS, readBPS float64, perIOLat Duration) *Disk {
	return &Disk{
		env: env, name: name,
		WriteBytesPerSec: writeBPS, ReadBytesPerSec: readBPS,
		PerIOLatency: perIOLat,
	}
}

// Name returns the disk's name.
func (d *Disk) Name() string { return d.name }

// WriteThen books a write of the given size, which queues, seeks and streams,
// and t runs when it completes, the wake-up drawn where a proc waiting until
// then would draw it (Env.WaitThen). It returns the pure service time
// (excluding queueing) and reports whether t was registered; if not, the
// write was already done or its completion fired in place, and the caller
// goes on at once.
func (d *Disk) WriteThen(bytes int64, t Task) (Duration, bool) {
	d.bytesWritten += bytes
	d.writes++
	svc, at := d.book(bytes, d.WriteBytesPerSec)
	return svc, d.until(at, t)
}

// ReadThen is the twin of WriteThen for a read of the given size: the read
// is booked now and t runs when it completes. It returns the service time
// and reports whether t was registered; if not, the caller goes on at once.
func (d *Disk) ReadThen(bytes int64, t Task) (Duration, bool) {
	d.bytesRead += bytes
	d.reads++
	svc, at := d.book(bytes, d.ReadBytesPerSec)
	return svc, d.until(at, t)
}

// until registers t to run at the completion instant at, reached as WaitUntil
// reaches it, and reports whether it did.
func (d *Disk) until(at Time, t Task) bool {
	return at > d.env.now && d.env.WaitThen(at.Sub(d.env.now), t)
}

// book queues an IO of the given size behind the ones booked before it and
// returns its service time and completion instant.
func (d *Disk) book(bytes int64, bps float64) (Duration, Time) {
	ser := d.PerIOLatency + Duration(float64(bytes)/bps*float64(Second))
	start := maxTime(d.env.now, d.freeAt)
	d.freeAt = start.Add(ser)
	return ser, d.freeAt
}

// BytesWritten returns total bytes written.
func (d *Disk) BytesWritten() int64 { return d.bytesWritten }

// BytesRead returns total bytes read.
func (d *Disk) BytesRead() int64 { return d.bytesRead }

// Writes returns the number of write IOs.
func (d *Disk) Writes() int64 { return d.writes }

// Reads returns the number of read IOs.
func (d *Disk) Reads() int64 { return d.reads }
