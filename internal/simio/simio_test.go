package simio

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseConfigDefaults(t *testing.T) {
	c, err := ParseConfig(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Mesh != "trench" || c.Physics != "acoustic" || c.Degree != 4 || c.CFL != 0.4 || c.Cycles != 20 {
		t.Errorf("defaults not applied: %+v", c)
	}
}

func TestParseConfigRejectsBadFields(t *testing.T) {
	cases := []string{
		`{"physics": "quantum"}`,
		`{"degree": 55}`,
		`{"cycles": -3}`,
		`{"cfl": -1}`,
		`{"source": {"comp": 7}}`,
		`{"receivers": [{"comp": -1}]}`,
		`{"unknown_field": 1}`,
		`not json`,
		`{"mesh":"trench","cycles":5} {"cycles":-1} garbage`,
		`{"mesh":"trench"} x`,
		`{"mesh":"trench"}{}`,
		`{"sponge": {"width": -1, "strength": -3}}`,
		`{"sponge": {"width": 0, "strength": 2}}`,
	}
	for _, s := range cases {
		if _, err := ParseConfig(strings.NewReader(s)); err == nil {
			t.Errorf("config %q accepted", s)
		}
	}
}

// TestValidateComponentPhysics: component ranges are validated against the
// physics — acoustic fields have a single component — instead of the
// driver silently clamping out-of-range components.
func TestValidateComponentPhysics(t *testing.T) {
	cases := []struct {
		js string
		ok bool
	}{
		{`{"physics": "acoustic", "source": {"comp": 1, "f0": 1}}`, false},
		{`{"physics": "acoustic", "receivers": [{"comp": 2}]}`, false},
		{`{"physics": "acoustic", "source": {"comp": 0, "f0": 1}}`, true},
		{`{"physics": "elastic", "source": {"comp": 2, "f0": 1}}`, true},
		{`{"physics": "elastic", "receivers": [{"comp": 2}]}`, true},
		{`{"physics": "elastic", "source": {"comp": 3, "f0": 1}}`, false},
	}
	for _, c := range cases {
		_, err := ParseConfig(strings.NewReader(c.js))
		if c.ok && err != nil {
			t.Errorf("config %q rejected: %v", c.js, err)
		}
		if !c.ok && err == nil {
			t.Errorf("config %q accepted", c.js)
		}
	}
}

// TestParseConfigTrailingSpace: white space after the value is not
// trailing data, and a disabled sponge needs no width.
func TestParseConfigTrailingSpace(t *testing.T) {
	for _, js := range []string{"{\"cycles\": 5} \n\t", `{"sponge": {"width": -1}}`} {
		if _, err := ParseConfig(strings.NewReader(js)); err != nil {
			t.Errorf("config %q rejected: %v", js, err)
		}
	}
}

func TestParseConfigFull(t *testing.T) {
	js := `{
		"mesh": "crust", "scale": 0.1, "physics": "elastic", "degree": 5,
		"cfl": 0.3, "lts": true, "cycles": 7,
		"source": {"x": 1, "y": 2, "z": 0.5, "comp": 2, "f0": 4, "t0": 0.3},
		"receivers": [{"name": "st1", "x": 3, "y": 2, "z": 0, "comp": 2}],
		"sponge": {"width": 2, "strength": 20, "faces": [true,true,true,true,false,true]}
	}`
	c, err := ParseConfig(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if c.Mesh != "crust" || !c.LTS || c.Cycles != 7 || len(c.Receivers) != 1 {
		t.Errorf("parse mismatch: %+v", c)
	}
	if c.Sponge.Faces[4] {
		t.Error("free surface should not absorb")
	}
}

func TestSeismogramCSV(t *testing.T) {
	var s SeismogramSet
	times := []float64{0, 0.1, 0.2}
	if err := s.AddTrace("a", 1, 2, 3, times, []float64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTrace("b", 4, 5, 6, times, []float64{3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTrace("c", 0, 0, 0, times, []float64{1}); err == nil {
		t.Error("mismatched trace accepted")
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0][1] != "a" || recs[2][2] != "4" {
		t.Errorf("csv content wrong: %v", recs)
	}
}

func TestSeismogramJSONRoundTrip(t *testing.T) {
	var s SeismogramSet
	times := []float64{0, 0.5}
	if err := s.AddTrace("x", 1, 0, 0, times, []float64{0.25, -1.5}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got SeismogramSet
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 1 || got.Traces[0].Name != "x" || got.Traces[0].Values[1] != -1.5 {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

// Property: JSON round trip preserves arbitrary finite trace values.
func TestJSONRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // JSON cannot carry these; skip
			}
		}
		var s SeismogramSet
		times := make([]float64, len(vals))
		for i := range times {
			times[i] = float64(i)
		}
		if err := s.AddTrace("t", 0, 0, 0, times, vals); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			return false
		}
		var got SeismogramSet
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			return false
		}
		for i, v := range vals {
			if got.Traces[0].Values[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
