// Package bench is the experiment harness: one experiment per
// table/figure/claim of the paper (DESIGN.md's per-experiment index).
// Each experiment regenerates its result as a Table that cmd/pdmbench
// prints and EXPERIMENTS.md records; the root bench_test.go exposes the
// same experiments as testing.B benchmarks.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"

	"pdmdict/internal/obs"
)

// Table is one rendered experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "E1-fig1").
	ID string `json:"id"`
	// Title describes what the table shows and which part of the paper
	// it reproduces.
	Title string `json:"title"`
	// Columns are the header labels.
	Columns []string `json:"columns"`
	// Rows hold the formatted cells.
	Rows [][]string `json:"rows"`
	// Notes are free-form remarks printed under the table.
	Notes []string `json:"notes,omitempty"`
	// Hists are log₂-bucketed parallel-I/O-per-operation distributions
	// behind the table's summary rows, where the experiment records them.
	// They appear only in the JSON output — the full distribution does
	// not fit a text cell.
	Hists []obs.Summary `json:"histograms,omitempty"`
}

// AddHist digests the per-operation cost samples into a log₂ histogram
// summary attached to the table's JSON form.
func (t *Table) AddHist(name string, costs []int64) {
	var h obs.Hist
	for _, c := range costs {
		h.Observe(c)
	}
	t.Hists = append(t.Hists, h.Summarize(name))
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown formats the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// CSV formats the table as RFC-4180-ish CSV (quotes around cells
// containing commas or quotes), with a leading comment line naming the
// experiment.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// ReportSchemaVersion identifies the JSON document shape pdmbench
// emits. Version 1 was a bare array of tables; version 2 wrapped it in
// a Report so the schema can evolve without breaking consumers; version
// 3 added p999 to histogram digests and per-operation SLO quantiles to
// the parallel-throughput tables; version 4 added the chaos-soak
// results (pdmbench -chaos); version 5 added the group-commit
// scheduler comparison (pdmbench -parallel); version 6 dropped the
// paced multi-client throughput results; version 7 dropped the chaos
// soak's wall_ns and the config keys of its now-fixed shape. Bump this
// whenever Report or Table changes shape.
const ReportSchemaVersion = 7

// Report is the top-level JSON document of a -json run.
type Report struct {
	SchemaVersion int     `json:"schema_version"`
	Tables        []Table `json:"tables"`
	// Chaos carries the chaos-soak results — schedule, health counters,
	// and exact cost attribution — when the run was pdmbench -chaos.
	Chaos []ChaosResult `json:"chaos,omitempty"`
	// Sched carries the group-commit scheduler comparison — direct vs
	// coalesced modeled steps per operation, per client count — when
	// the run was pdmbench -parallel.
	Sched []SchedResult `json:"sched,omitempty"`
}

// Format selects a Table rendering.
type Format int

// Output formats.
const (
	FormatText Format = iota
	FormatMarkdown
	FormatCSV
	// FormatJSON emits the whole run as one JSON document — a Report
	// carrying schema_version and the Table objects, including the
	// per-operation I/O histograms that the text formats omit.
	FormatJSON
)

// RunFormat is Run with an explicit output format.
func RunFormat(pattern string, w io.Writer, format Format) ([]Table, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("bench: bad pattern %q: %w", pattern, err)
	}
	var all []Table
	matched := 0
	for _, e := range Experiments() {
		if !re.MatchString(e.ID) {
			continue
		}
		matched++
		if format != FormatCSV && format != FormatJSON {
			fmt.Fprintf(w, "running %s: %s\n", e.ID, e.Title)
		}
		tables := e.Run()
		all = append(all, tables...)
		if format != FormatJSON {
			// Text formats stream each experiment's tables as it finishes;
			// JSON is one document after the loop.
			writeTables(w, tables, format)
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("bench: no experiment matches %q", pattern)
	}
	if format == FormatJSON {
		if err := WriteReport(w, Report{Tables: all}, format); err != nil {
			return nil, err
		}
	}
	return all, nil
}

// WriteReport renders r to w in the given format. JSON emits the whole
// Report, stamped with ReportSchemaVersion, including the raw chaos and
// scheduler results; the text formats render only its tables.
func WriteReport(w io.Writer, r Report, format Format) error {
	if format != FormatJSON {
		writeTables(w, r.Tables, format)
		return nil
	}
	r.SchemaVersion = ReportSchemaVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("bench: encoding JSON: %w", err)
	}
	return nil
}

// writeTables renders each table in one of the text formats.
func writeTables(w io.Writer, tables []Table, format Format) {
	for _, t := range tables {
		switch format {
		case FormatMarkdown:
			fmt.Fprintln(w, t.Markdown())
		case FormatCSV:
			fmt.Fprintln(w, t.CSV())
		default:
			fmt.Fprintln(w, t.Render())
		}
	}
}

// Experiment is one entry of the suite.
type Experiment struct {
	// ID matches DESIGN.md's per-experiment index.
	ID string
	// Title is a one-line description.
	Title string
	// Run executes the experiment and returns its tables.
	Run func() []Table
}

// registry holds every experiment, keyed by ID.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns the registered experiments sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes every experiment whose ID matches the pattern (a regular
// expression; "" matches all), writing rendered tables to w. It returns
// the tables and an error if the pattern matched nothing.
func Run(pattern string, w io.Writer, markdown bool) ([]Table, error) {
	format := FormatText
	if markdown {
		format = FormatMarkdown
	}
	return RunFormat(pattern, w, format)
}

// meter accumulates per-operation cost samples.
type meter struct {
	costs []int64
}

func (m *meter) add(c int64) { m.costs = append(m.costs, c) }

func (m *meter) avg() float64 {
	if len(m.costs) == 0 {
		return 0
	}
	var sum int64
	for _, c := range m.costs {
		sum += c
	}
	return float64(sum) / float64(len(m.costs))
}

func (m *meter) max() int64 {
	var max int64
	for _, c := range m.costs {
		if c > max {
			max = c
		}
	}
	return max
}

// percentile returns the p-quantile (p in [0,1]) of the samples.
func (m *meter) percentile(p float64) int64 {
	if len(m.costs) == 0 {
		return 0
	}
	sorted := append([]int64(nil), m.costs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
