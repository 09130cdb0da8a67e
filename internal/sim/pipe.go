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

// Write blocks p while a write of the given size queues, seeks and streams,
// returning the pure service time (excluding queueing).
func (d *Disk) Write(p *Proc, bytes int64) Duration {
	svc := d.io(p, bytes, d.WriteBytesPerSec)
	d.bytesWritten += bytes
	d.writes++
	return svc
}

// Read blocks p while a read of the given size queues, seeks and streams,
// returning the pure service time (excluding queueing).
func (d *Disk) Read(p *Proc, bytes int64) Duration {
	svc := d.io(p, bytes, d.ReadBytesPerSec)
	d.bytesRead += bytes
	d.reads++
	return svc
}

func (d *Disk) io(p *Proc, bytes int64, bps float64) Duration {
	ser := d.PerIOLatency + Duration(float64(bytes)/bps*float64(Second))
	start := maxTime(d.env.now, d.freeAt)
	d.freeAt = start.Add(ser)
	p.WaitUntil(d.freeAt)
	return ser
}

// BytesWritten returns total bytes written.
func (d *Disk) BytesWritten() int64 { return d.bytesWritten }

// BytesRead returns total bytes read.
func (d *Disk) BytesRead() int64 { return d.bytesRead }

// Writes returns the number of write IOs.
func (d *Disk) Writes() int64 { return d.writes }

// Reads returns the number of read IOs.
func (d *Disk) Reads() int64 { return d.reads }
