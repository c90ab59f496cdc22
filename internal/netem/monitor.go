package netem

import (
	"time"

	"bufferqoe/internal/sim"
	"bufferqoe/internal/stats"
)

// QueueMonitor collects the buffer statistics the paper reads from the
// NetFPGA cards: time-weighted occupancy, per-packet queueing delay
// (Figure 4 heatmaps), and drop counts (Table 1 loss columns).
type QueueMonitor struct {
	Name string

	Enqueued uint64
	Dropped  uint64
	Dequeued uint64

	// Delay collects per-packet waiting times in milliseconds.
	Delay stats.Sample
	// DelayMean tracks mean/max waiting time in milliseconds.
	DelayMean stats.Welford
	// OccupancyPkts tracks the time-weighted queue length.
	OccupancyPkts stats.TimeWeighted
}

// Reset clears the monitor for reuse on another run, keeping the
// sample backing arrays so a scratch-pooled monitor refills without
// reallocating.
func (m *QueueMonitor) Reset(name string) {
	m.Name = name
	m.Enqueued, m.Dropped, m.Dequeued = 0, 0, 0
	m.Delay.Reset()
	m.DelayMean.Reset()
	m.OccupancyPkts.Reset()
}

func (m *QueueMonitor) enqueue(p *Packet, now sim.Time, qlen, qbytes int) {
	m.Enqueued++
	m.OccupancyPkts.Set(now.Seconds(), float64(qlen))
}

func (m *QueueMonitor) drop(p *Packet, now sim.Time, qlen, qbytes int) {
	m.Dropped++
}

func (m *QueueMonitor) dequeue(p *Packet, now sim.Time, qlen, qbytes int) {
	m.Dequeued++
	ms := now.Sub(p.Enqueued).Seconds() * 1000
	m.Delay.Add(ms)
	m.DelayMean.Add(ms)
	m.OccupancyPkts.Set(now.Seconds(), float64(qlen))
}

// NoteEnqueue records an accepted packet from a queue implementation
// outside this package (the aqm disciplines).
func (m *QueueMonitor) NoteEnqueue(p *Packet, now sim.Time, qlen, qbytes int) {
	m.enqueue(p, now, qlen, qbytes)
}

// NoteDrop records a dropped packet from an external queue
// implementation.
func (m *QueueMonitor) NoteDrop(p *Packet, now sim.Time, qlen, qbytes int) {
	m.drop(p, now, qlen, qbytes)
}

// NoteDequeue records a dequeued packet from an external queue
// implementation; per-packet queueing delay is derived from
// p.Enqueued.
func (m *QueueMonitor) NoteDequeue(p *Packet, now sim.Time, qlen, qbytes int) {
	m.dequeue(p, now, qlen, qbytes)
}

// LossRate returns the fraction of offered packets that were dropped.
func (m *QueueMonitor) LossRate() float64 {
	total := m.Enqueued + m.Dropped
	if total == 0 {
		return 0
	}
	return float64(m.Dropped) / float64(total)
}

// MeanDelayMs returns the mean per-packet queueing delay in
// milliseconds.
func (m *QueueMonitor) MeanDelayMs() float64 { return m.DelayMean.Mean() }

// RatedCarrier is what a LinkMonitor observes: any transmission channel
// with a nominal capacity. The wired Link implements it; so does the
// 802.11 MAC link, whose nominal rate is the PHY rate (utilization is
// then reported against the raw air rate, contention overhead
// included).
type RatedCarrier interface {
	// NominalRate returns the channel capacity in bits per second; 0
	// means infinite (pure delay elements are never monitored).
	NominalRate() float64
}

// LinkMonitor measures link throughput and per-interval utilization
// samples (the boxplots of Figure 5 and the utilization columns of
// Table 1).
type LinkMonitor struct {
	Name string

	BytesSent uint64
	PktsSent  uint64

	// UtilSamples holds per-interval utilization percentages once
	// StartSampling has been called.
	UtilSamples stats.Sample

	carrier   RatedCarrier
	lastBytes uint64
	startTime sim.Time
	started   bool
}

// Reset clears the monitor for reuse on another run (the carrier
// attachment is re-established by Link.AttachMonitor or
// LinkMonitor.Attach).
func (m *LinkMonitor) Reset() {
	m.Name = ""
	m.BytesSent, m.PktsSent = 0, 0
	m.UtilSamples.Reset()
	m.carrier = nil
	m.lastBytes = 0
	m.startTime = 0
	m.started = false
}

// Attach wires the monitor to a carrier under the given name. Carrier
// implementations outside this package (the mac link) use it the way
// Link.AttachMonitor is used for wired links.
func (m *LinkMonitor) Attach(name string, c RatedCarrier) {
	m.Name = name
	m.carrier = c
}

func (m *LinkMonitor) transmitted(p *Packet) {
	m.BytesSent += uint64(p.Size)
	m.PktsSent++
}

// NoteTransmit records a transmitted packet from a carrier
// implementation outside this package (mirroring the QueueMonitor
// Note* hooks the aqm disciplines use).
func (m *LinkMonitor) NoteTransmit(p *Packet) { m.transmitted(p) }

// StartSampling records a utilization sample every interval until the
// engine stops. Utilization is the fraction of carrier capacity used
// during each interval, in percent.
func (m *LinkMonitor) StartSampling(eng *sim.Engine, interval time.Duration) {
	if m.carrier == nil || m.started {
		return
	}
	m.started = true
	m.startTime = eng.Now()
	m.lastBytes = m.BytesSent
	var tick sim.Func
	tick = func() {
		sent := m.BytesSent - m.lastBytes
		m.lastBytes = m.BytesSent
		cap := m.carrier.NominalRate() * interval.Seconds() / 8
		if cap > 0 {
			m.UtilSamples.Add(100 * float64(sent) / cap)
		}
		eng.ScheduleHandler(interval, tick)
	}
	eng.ScheduleHandler(interval, tick)
}

// MeanUtilization returns the overall utilization percentage since the
// start of the run (or since StartSampling).
func (m *LinkMonitor) MeanUtilization(now sim.Time) float64 {
	if m.carrier == nil {
		return 0
	}
	rate := m.carrier.NominalRate()
	if rate == 0 {
		return 0
	}
	elapsed := now.Sub(m.startTime).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return 100 * float64(m.BytesSent) * 8 / (rate * elapsed)
}
