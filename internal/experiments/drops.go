package experiments

import (
	"fmt"
	"time"

	"github.com/dsrhaslab/dio-go/internal/clock"
	"github.com/dsrhaslab/dio-go/internal/core"
	"github.com/dsrhaslab/dio-go/internal/kernel"
	"github.com/dsrhaslab/dio-go/internal/store"
	"github.com/dsrhaslab/dio-go/internal/viz"
)

// DropsConfig parametrizes the §III-D ring-buffer loss experiment.
type DropsConfig struct {
	// RingBytesSweep is the per-CPU ring capacities to test.
	RingBytesSweep []int
	// Writes is the number of back-to-back 4 KiB writes per run (the event
	// storm that outpaces the consumer).
	Writes int
	// FlushInterval throttles the user-space consumer; larger values model
	// a consumer that falls behind (as the paper's did at 549M events).
	FlushInterval time.Duration
}

func (c DropsConfig) withDefaults() DropsConfig {
	if len(c.RingBytesSweep) == 0 {
		c.RingBytesSweep = []int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	}
	if c.Writes <= 0 {
		c.Writes = 20_000
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 20 * time.Millisecond
	}
	return c
}

// DropsPoint is one sweep point: ring capacity versus event loss.
type DropsPoint struct {
	RingBytes    int
	Captured     uint64
	Dropped      uint64
	DropFraction float64
}

// DropsResult is the output of the ring-buffer loss experiment.
type DropsResult struct {
	Points []DropsPoint
	Table  *viz.Table
}

// RunDrops reproduces §III-D's I/O events handling observation: a
// fixed-size ring buffer drops events when the kernel produces faster than
// user space consumes (the paper lost ≈3.5% of 549M syscalls at 256 MiB per
// core). The sweep shows the loss shrinking as capacity grows.
func RunDrops(cfg DropsConfig) (DropsResult, error) {
	cfg = cfg.withDefaults()
	out := DropsResult{
		Table: &viz.Table{
			Title:   "§III-D: ring-buffer capacity vs discarded events",
			Columns: []string{"ring bytes/CPU", "captured", "dropped", "drop %"},
		},
	}
	for _, ringBytes := range cfg.RingBytesSweep {
		pt, err := runDropsPoint(ringBytes, cfg)
		if err != nil {
			return DropsResult{}, fmt.Errorf("ring %d: %w", ringBytes, err)
		}
		out.Points = append(out.Points, pt)
		out.Table.Rows = append(out.Table.Rows, []string{
			fmt.Sprintf("%d", pt.RingBytes),
			fmt.Sprintf("%d", pt.Captured),
			fmt.Sprintf("%d", pt.Dropped),
			fmt.Sprintf("%.2f%%", pt.DropFraction*100),
		})
	}
	return out, nil
}

func runDropsPoint(ringBytes int, cfg DropsConfig) (DropsPoint, error) {
	// A very fast disk so the producer outruns the consumer.
	k := kernel.New(kernel.Config{
		Clock: clock.NewReal(0),
		Disk:  kernel.DiskConfig{BytesPerSecond: 1 << 40, PerOpLatency: 0},
	})
	if err := k.MkdirAll("/data"); err != nil {
		return DropsPoint{}, err
	}
	backend, err := store.Open()
	if err != nil {
		return DropsPoint{}, err
	}
	tracer, err := core.NewTracer(core.Config{
		SessionName:   fmt.Sprintf("drops-%d", ringBytes),
		Backend:       backend,
		NumCPU:        1,
		RingBytes:     ringBytes,
		FlushInterval: cfg.FlushInterval,
		BatchSize:     4096,
	})
	if err != nil {
		return DropsPoint{}, err
	}
	if err := tracer.Start(k); err != nil {
		return DropsPoint{}, err
	}

	task := k.NewProcess("storm").NewTask("storm")
	fd, oerr := task.Openat(kernel.AtFDCWD, "/data/storm.dat", kernel.OWronly|kernel.OCreat, 0o644)
	if oerr != nil {
		tracer.Stop()
		return DropsPoint{}, oerr
	}
	buf := make([]byte, 4096)
	for i := 0; i < cfg.Writes; i++ {
		if _, werr := task.Write(fd, buf); werr != nil {
			tracer.Stop()
			return DropsPoint{}, werr
		}
	}
	task.Close(fd)

	stats, serr := tracer.Stop()
	if serr != nil {
		return DropsPoint{}, serr
	}
	return DropsPoint{
		RingBytes:    ringBytes,
		Captured:     stats.Captured,
		Dropped:      stats.Dropped,
		DropFraction: stats.DropFraction(),
	}, nil
}
