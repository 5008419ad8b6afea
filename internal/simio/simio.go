// Package simio provides the I/O surface of the simulation tools:
// JSON run configurations (mesh, physics, source, receivers) and
// seismogram export as CSV or JSON. It keeps the numerical packages free
// of serialization concerns.
package simio

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Config describes one simulation run for cmd/wavesim.
type Config struct {
	// Mesh is a benchmark mesh name (trench, trench-big, embedding,
	// crust).
	Mesh string `json:"mesh"`
	// Scale is the mesh scale factor.
	Scale float64 `json:"scale"`
	// Physics is "acoustic" or "elastic".
	Physics string `json:"physics"`
	// Degree is the SEM polynomial degree (default 4).
	Degree int `json:"degree"`
	// CFL is the Courant number (default 0.4, normalised internally for
	// the GLL spacing).
	CFL float64 `json:"cfl"`
	// LTS selects LTS-Newmark; false runs global Newmark.
	LTS bool `json:"lts"`
	// Cycles is the number of coarse steps.
	Cycles int `json:"cycles"`
	// Source is the point source; zero value places a default source.
	Source SourceSpec `json:"source"`
	// Receivers list the recording stations.
	Receivers []ReceiverSpec `json:"receivers"`
	// Sponge configures the absorbing boundary layer; zero disables.
	Sponge SpongeSpec `json:"sponge"`
}

// SourceSpec places a Ricker point source.
type SourceSpec struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
	// Comp is the force component (0..2 for elastic; must be 0 for
	// acoustic).
	Comp int `json:"comp"`
	// F0 is the dominant frequency; T0 the time shift.
	F0 float64 `json:"f0"`
	T0 float64 `json:"t0"`
}

// ReceiverSpec places a recording station.
type ReceiverSpec struct {
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Z    float64 `json:"z"`
	Comp int     `json:"comp"`
}

// SpongeSpec configures the absorbing layer.
type SpongeSpec struct {
	Width    float64 `json:"width"`
	Strength float64 `json:"strength"`
	// Faces selects absorbing faces in x0,x1,y0,y1,z0,z1 order; the
	// typical seismology setup absorbs everything except the free surface.
	Faces [6]bool `json:"faces"`
}

// Validate fills defaults and rejects inconsistent configurations.
func (c *Config) Validate() error {
	if c.Mesh == "" {
		c.Mesh = "trench"
	}
	if c.Scale == 0 {
		c.Scale = 0.02
	}
	if c.Physics == "" {
		c.Physics = "acoustic"
	}
	if c.Physics != "acoustic" && c.Physics != "elastic" {
		return fmt.Errorf("simio: unknown physics %q", c.Physics)
	}
	if c.Degree == 0 {
		c.Degree = 4
	}
	if c.Degree < 1 || c.Degree > 12 {
		return fmt.Errorf("simio: degree %d outside [1, 12]", c.Degree)
	}
	if c.CFL == 0 {
		c.CFL = 0.4
	}
	if c.CFL < 0 {
		return fmt.Errorf("simio: negative CFL")
	}
	if c.Cycles == 0 {
		c.Cycles = 20
	}
	if c.Cycles < 0 {
		return fmt.Errorf("simio: negative cycle count")
	}
	// Components are validated against the physics: acoustic fields have a
	// single component 0, elastic fields three. Out-of-range components are
	// rejected here instead of being silently clamped by the driver.
	maxComp := 2
	if c.Physics == "acoustic" {
		maxComp = 0
	}
	if c.Source.Comp < 0 || c.Source.Comp > maxComp {
		return fmt.Errorf("simio: source component %d outside [0, %d] for %s physics",
			c.Source.Comp, maxComp, c.Physics)
	}
	for i, r := range c.Receivers {
		if r.Comp < 0 || r.Comp > maxComp {
			return fmt.Errorf("simio: receiver %d component %d outside [0, %d] for %s physics",
				i, r.Comp, maxComp, c.Physics)
		}
	}
	// wave.WithSponge's rules, checked here so that a bad layer is refused
	// with the rest of the configuration rather than when the run is built.
	if c.Sponge.Strength < 0 {
		return fmt.Errorf("simio: negative sponge strength %g", c.Sponge.Strength)
	}
	if c.Sponge.Strength > 0 && c.Sponge.Width <= 0 {
		return fmt.Errorf("simio: sponge width must be positive, got %g", c.Sponge.Width)
	}
	return nil
}

// LoadConfig reads and validates a JSON configuration file.
func LoadConfig(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseConfig(f)
}

// ParseConfig reads and validates a JSON configuration.
func ParseConfig(r io.Reader) (*Config, error) {
	var c Config
	if err := DecodeStrict(r, &c); err != nil {
		return nil, fmt.Errorf("simio: parsing config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// DecodeStrict decodes the one JSON value r holds into v: an unknown
// field or anything but white space after the value is an error, so an
// untrusted document is accepted whole or not at all.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// Trace is one recorded seismogram.
type Trace struct {
	Name   string    `json:"name"`
	X      float64   `json:"x"`
	Y      float64   `json:"y"`
	Z      float64   `json:"z"`
	Values []float64 `json:"values"`
}

// SeismogramSet is a collection of traces sharing a time axis.
type SeismogramSet struct {
	Times  []float64 `json:"times"`
	Traces []Trace   `json:"traces"`
}

// WaveFloor is the smallest peak SawWave takes for a wave that arrived,
// per unit of source gain (the facade's sources are unit forces). `!= 0`
// is not that test: the first sample to leave zero is the far tail of the
// wavelet's onset pushed through a dozen stiffness applications — 1e-37
// at trench scale 0.004 x 6 cycles, one such sample after five exact
// zeros — and traces like that compare equal however wrong the field
// behind them is. Trench at 0.015 x 40 cycles peaks near 4e-19 with 35
// nonzero samples.
const WaveFloor = 1e-24

// SawWave reports whether a trace recorded the wave rather than the
// rounding tail of its onset: a peak of at least WaveFloor and at least
// two nonzero samples. It is the floor every byte or bit comparison of
// seismograms checks its reference against, and wavesim -require-nonzero.
func SawWave(values []float64) bool {
	peak, nonzero := 0.0, 0
	for _, v := range values {
		peak = max(peak, math.Abs(v))
		if v != 0 {
			nonzero++
		}
	}
	return peak >= WaveFloor && nonzero >= 2
}

// AddTrace appends a trace; the first trace fixes the time axis and later
// traces must match its length.
func (s *SeismogramSet) AddTrace(name string, x, y, z float64, times, values []float64) error {
	if s.Times == nil {
		s.Times = append([]float64(nil), times...)
	}
	if len(values) != len(s.Times) {
		return fmt.Errorf("simio: trace %q has %d samples, set has %d", name, len(values), len(s.Times))
	}
	s.Traces = append(s.Traces, Trace{Name: name, X: x, Y: y, Z: z, Values: append([]float64(nil), values...)})
	return nil
}

// WriteCSV writes the set as a CSV table: a time column followed by one
// column per trace.
func (s *SeismogramSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"time"}
	for _, tr := range s.Traces {
		header = append(header, tr.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i, t := range s.Times {
		row[0] = strconv.FormatFloat(t, 'g', 12, 64)
		for j, tr := range s.Traces {
			row[j+1] = strconv.FormatFloat(tr.Values[i], 'g', 12, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes the set as indented JSON.
func (s *SeismogramSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
