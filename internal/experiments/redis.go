package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/redisapp"
)

// Figure14Row is one command's speedup set.
type Figure14Row struct {
	Command string
	// Per-request cycles under each system.
	TCP, SHM, Stramash float64
	// Speedups normalized to POPCORN-TCP (the paper's baseline).
	SHMSpeedup      float64
	StramashSpeedup float64
}

// Figure14Result is the Redis network-serving experiment (§9.2.8).
type Figure14Result struct {
	Rows []Figure14Row
}

// Figure14 benchmarks the eight Redis commands under the three systems.
func Figure14(scale Scale) (*Figure14Result, error) {
	requests := 200
	payload := 1024
	if scale == Quick {
		requests = 40
		payload = 512
	}
	oses := []machine.OSKind{machine.PopcornTCP, machine.PopcornSHM, machine.StramashOS}
	perReq := make([][3]float64, len(redisapp.CommandNames))
	err := forEachRow(len(perReq)*len(oses), func(i int) error {
		name, osk := redisapp.CommandNames[i/len(oses)], oses[i%len(oses)]
		cmd, err := redisapp.ParseCommand(name)
		if err != nil {
			return err
		}
		m, err := machine.New(machine.Config{Model: mem.Shared, OS: osk})
		if err != nil {
			return err
		}
		res, err := redisapp.Run(m, redisapp.BenchParams{
			Command: cmd, Requests: requests, PayloadBytes: payload, Keys: 32,
		})
		if err != nil {
			return fmt.Errorf("figure14 %s/%v: %w", name, osk, err)
		}
		if res.Errors > 0 {
			return fmt.Errorf("figure14 %s/%v: %d command errors", name, osk, res.Errors)
		}
		perReq[i/len(oses)][i%len(oses)] = res.CyclesPerRequest
		return nil
	})
	if err != nil {
		return nil, err
	}
	r := &Figure14Result{}
	for j, name := range redisapp.CommandNames {
		row := Figure14Row{Command: name, TCP: perReq[j][0], SHM: perReq[j][1], Stramash: perReq[j][2]}
		row.SHMSpeedup = ratio(row.TCP, row.SHM)
		row.StramashSpeedup = ratio(row.TCP, row.Stramash)
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// Name implements Result.
func (r *Figure14Result) Name() string { return "Figure 14: Redis speedup over POPCORN-TCP" }

// Render implements Result.
func (r *Figure14Result) Render() string {
	tw := &tableWriter{header: []string{"Command", "TCP cyc/req", "SHM cyc/req", "Stramash cyc/req", "SHM speedup", "Stramash speedup"}}
	for _, row := range r.Rows {
		tw.addRow(row.Command, f1(row.TCP), f1(row.SHM), f1(row.Stramash),
			f2(row.SHMSpeedup), f2(row.StramashSpeedup))
	}
	return tw.String()
}

// ShapeErrors implements Result: SHM clearly beats TCP on every command
// (4-10x in the paper) and Stramash beats SHM (up to 12x over TCP).
func (r *Figure14Result) ShapeErrors() []string {
	var errs []string
	for _, row := range r.Rows {
		if row.SHMSpeedup <= 1.5 {
			errs = append(errs, fmt.Sprintf("%s: SHM speedup %.2fx not clearly above TCP (paper 4-10x)", row.Command, row.SHMSpeedup))
		}
		if row.StramashSpeedup <= row.SHMSpeedup {
			errs = append(errs, fmt.Sprintf("%s: Stramash speedup %.2fx not above SHM's %.2fx", row.Command, row.StramashSpeedup, row.SHMSpeedup))
		}
	}
	return errs
}
