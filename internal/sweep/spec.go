package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/vtime"
)

// Spec declares a sweep as cross-product axes. The zero value of every
// axis means "the paper's default": all five apps, the paper's two
// clusters, the two paper protocols, every node count the platform
// supports, one thread per node, default engine costs, one run per
// point. Specs round-trip through JSON so sweeps can live in files.
type Spec struct {
	// Name labels the sweep in reports and has no effect on execution.
	Name string `json:"name,omitempty"`
	// Apps are benchmark names (see AppNames). Empty = all five.
	Apps []string `json:"apps,omitempty"`
	// Clusters are platform names or aliases (see ClusterNames).
	// Empty = the paper's two platforms (myrinet, sci).
	Clusters []string `json:"clusters,omitempty"`
	// Protocols are registered protocol names. Empty = the paper's two
	// (java_ic, java_pf).
	Protocols []string `json:"protocols,omitempty"`
	// Nodes are the node counts to sweep. Counts above a platform's
	// MaxNodes are skipped for that platform. Empty = 1..MaxNodes per
	// platform (the figures' x axes).
	Nodes []int `json:"nodes,omitempty"`
	// ThreadsPerNode values to sweep. Empty = [1], the paper's setting.
	ThreadsPerNode []int `json:"threads_per_node,omitempty"`
	// PaperScale selects the paper's full §4.1 problem sizes.
	PaperScale bool `json:"paper_scale,omitempty"`
	// Repeats measures each point this many times and keeps the median
	// run (by execution time); <= 1 means a single run.
	Repeats int `json:"repeats,omitempty"`
	// Costs are engine/platform cost overrides to sweep, one grid axis
	// entry each. Empty = [default costs]. This is how the §3.3
	// ablations (check cost, fault cost, page size, cache capacity)
	// are expressed as sweeps.
	Costs []Override `json:"costs,omitempty"`
	// Trace asks the runner to record a protocol-event trace for the
	// first repeat of each executed point (see Executor.TraceCapacity).
	// It is an observability knob, not part of the experiment identity:
	// it does not appear in Point and never affects cache keys.
	Trace bool `json:"trace,omitempty"`
	// PageStats asks the runner to attach a per-page sharing profiler
	// to every executed repeat; the median repeat's classified report
	// rides in its Result. Like Trace, an observability knob: not part
	// of Point, never in cache keys (profiling observes the run without
	// changing virtual time, so results stay comparable either way).
	PageStats bool `json:"page_stats,omitempty"`
}

// Override adjusts the cost model of a grid point relative to the
// platform preset and default engine costs. Nil fields keep the default.
type Override struct {
	// Label names the override in reports; it does not affect execution
	// or cache identity.
	Label string `json:"label,omitempty"`

	// Engine costs (model.DSMCosts).
	CacheLookupCycles     *float64 `json:"cache_lookup_cycles,omitempty"`
	ServiceCycles         *float64 `json:"service_cycles,omitempty"`
	DiffPerByteCycles     *float64 `json:"diff_per_byte_cycles,omitempty"`
	InvalidateEntryCycles *float64 `json:"invalidate_entry_cycles,omitempty"`
	CacheCapacityPages    *int     `json:"cache_capacity_pages,omitempty"`
	// Batched-diff knobs of the java_hlrc release path.
	BatchSetupCycles   *float64 `json:"batch_setup_cycles,omitempty"`
	BatchPerByteCycles *float64 `json:"batch_per_byte_cycles,omitempty"`

	// Platform knobs (model.Cluster / model.Machine), the ablation axes.
	CheckCycles *float64 `json:"check_cycles,omitempty"`
	PageFaultUS *float64 `json:"page_fault_us,omitempty"`
	MprotectUS  *float64 `json:"mprotect_us,omitempty"`
	PageSize    *int     `json:"page_size,omitempty"`
}

// Fingerprint canonicalizes the override's effective values (label
// excluded) for grouping: two overrides fingerprint equal exactly when
// they configure the same experiment. A no-op override fingerprints to
// the empty string.
func (o Override) Fingerprint() string {
	if o.IsZero() {
		return ""
	}
	q := o
	q.Label = ""
	blob, err := json.Marshal(q)
	if err != nil {
		panic(fmt.Sprintf("sweep: marshaling override: %v", err)) // no unmarshalable fields
	}
	return string(blob)
}

// IsZero reports whether the override changes nothing (label aside).
func (o Override) IsZero() bool {
	return o.CacheLookupCycles == nil && o.ServiceCycles == nil &&
		o.DiffPerByteCycles == nil && o.InvalidateEntryCycles == nil &&
		o.CacheCapacityPages == nil && o.BatchSetupCycles == nil &&
		o.BatchPerByteCycles == nil && o.CheckCycles == nil &&
		o.PageFaultUS == nil && o.MprotectUS == nil && o.PageSize == nil
}

// Apply produces the cluster and engine costs of a grid point.
func (o Override) Apply(cl model.Cluster, costs model.DSMCosts) (model.Cluster, model.DSMCosts) {
	if o.CacheLookupCycles != nil {
		costs.CacheLookupCycles = *o.CacheLookupCycles
	}
	if o.ServiceCycles != nil {
		costs.ServiceCycles = *o.ServiceCycles
	}
	if o.DiffPerByteCycles != nil {
		costs.DiffPerByteCycles = *o.DiffPerByteCycles
	}
	if o.InvalidateEntryCycles != nil {
		costs.InvalidateEntryCycles = *o.InvalidateEntryCycles
	}
	if o.CacheCapacityPages != nil {
		costs.CacheCapacityPages = *o.CacheCapacityPages
	}
	if o.BatchSetupCycles != nil {
		costs.BatchSetupCycles = *o.BatchSetupCycles
	}
	if o.BatchPerByteCycles != nil {
		costs.BatchPerByteCycles = *o.BatchPerByteCycles
	}
	if o.CheckCycles != nil {
		cl.Machine.CheckCycles = *o.CheckCycles
	}
	if o.PageFaultUS != nil {
		cl.Machine.PageFault = vtime.Micro(*o.PageFaultUS)
	}
	if o.MprotectUS != nil {
		cl.Machine.Mprotect = vtime.Micro(*o.MprotectUS)
	}
	if o.PageSize != nil {
		cl.PageSize = *o.PageSize
	}
	return cl, costs
}

// PaperGrid is the full grid behind the paper's evaluation: five apps,
// two clusters, two protocols, every node count each platform supports.
// Any registered protocol is accepted on the Protocols axis.
func PaperGrid() Spec {
	return Spec{
		Name:      "paper-grid",
		Apps:      AppNames(),
		Clusters:  []string{"myrinet", "sci"},
		Protocols: []string{"java_ic", "java_pf"},
	}
}

// LoadSpec reads a JSON Spec from a file. Unknown fields are rejected so
// a typo in an axis name fails loudly instead of silently sweeping the
// default.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("sweep: %w", err)
	}
	return ParseSpec(data)
}

// ParseSpec decodes a JSON Spec.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sweep: parsing spec: %w", err)
	}
	return s, nil
}

// Point is one fully-resolved grid point: everything needed to run one
// simulation, in value form. Its canonical JSON encoding (minus the
// override label) is the identity the result cache hashes.
type Point struct {
	App            string   `json:"app"`
	Cluster        string   `json:"cluster"` // canonical key: myrinet, sci, tcp
	Protocol       string   `json:"protocol"`
	Nodes          int      `json:"nodes"`
	ThreadsPerNode int      `json:"threads_per_node"`
	PaperScale     bool     `json:"paper_scale"`
	Repeats        int      `json:"repeats"`
	Override       Override `json:"override"`
}

// maxGridPoints bounds a single spec's expansion. Big enough for any
// real study (the full paper grid is well under a thousand points, and
// the widest ablation grids are a few tens of thousands), small enough
// that a degenerate spec cannot exhaust memory.
const maxGridPoints = 1 << 16

// cacheKeyVersion is folded into every cache key; bump it when the
// simulation model changes in a way that invalidates cached results.
// v2: shipping-time diff coalescing and deterministic per-home flush
// order changed message sizes and virtual timings for every protocol.
// v3: results carry the engine's RunStats counters; v2 entries decode
// without them and would surface empty counters on every surface.
const cacheKeyVersion = "hyperion-sweep-v3"

// Key returns the point's content-addressed cache key: a hex SHA-256
// over the canonicalized point — cacheKeyVersion, a newline, and the
// point's JSON encoding. The override label is excluded — two points
// differing only in label are the same experiment. The hash input is
// built in a stack buffer (appendKeyJSON); points it cannot encode
// byte-identically to encoding/json take the json.Marshal path.
func (p Point) Key() string {
	var buf [512]byte
	in, ok := p.appendKeyJSON(append(append(buf[:0], cacheKeyVersion...), '\n'))
	if !ok {
		q := p
		q.Override.Label = ""
		blob, err := json.Marshal(q)
		if err != nil {
			panic(fmt.Sprintf("sweep: marshaling point: %v", err)) // no unmarshalable fields
		}
		in = append([]byte(cacheKeyVersion+"\n"), blob...)
	}
	sum := sha256.Sum256(in)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// appendKeyJSON appends what json.Marshal produces for p with its
// override label cleared. It reports false, leaving the fallback to the
// caller, for a string needing JSON escapes or a non-finite float.
func (p Point) appendKeyJSON(b []byte) ([]byte, bool) {
	ok := true
	str := func(b []byte, s string) []byte {
		for i := 0; i < len(s); i++ {
			if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				ok = false
			}
		}
		return append(append(append(b, '"'), s...), '"')
	}
	b = str(append(b, `{"app":`...), p.App)
	b = str(append(b, `,"cluster":`...), p.Cluster)
	b = str(append(b, `,"protocol":`...), p.Protocol)
	b = strconv.AppendInt(append(b, `,"nodes":`...), int64(p.Nodes), 10)
	b = strconv.AppendInt(append(b, `,"threads_per_node":`...), int64(p.ThreadsPerNode), 10)
	b = strconv.AppendBool(append(b, `,"paper_scale":`...), p.PaperScale)
	b = strconv.AppendInt(append(b, `,"repeats":`...), int64(p.Repeats), 10)
	b = append(b, `,"override":{`...)
	o := p.Override
	fields := [...]struct {
		name string
		f    *float64
		i    *int
	}{
		{"cache_lookup_cycles", o.CacheLookupCycles, nil},
		{"service_cycles", o.ServiceCycles, nil},
		{"diff_per_byte_cycles", o.DiffPerByteCycles, nil},
		{"invalidate_entry_cycles", o.InvalidateEntryCycles, nil},
		{"cache_capacity_pages", nil, o.CacheCapacityPages},
		{"batch_setup_cycles", o.BatchSetupCycles, nil},
		{"batch_per_byte_cycles", o.BatchPerByteCycles, nil},
		{"check_cycles", o.CheckCycles, nil},
		{"page_fault_us", o.PageFaultUS, nil},
		{"mprotect_us", o.MprotectUS, nil},
		{"page_size", nil, o.PageSize},
	}
	sep := false
	for _, fd := range fields {
		if fd.f == nil && fd.i == nil {
			continue
		}
		if sep {
			b = append(b, ',')
		}
		sep = true
		b = append(append(append(b, '"'), fd.name...), `":`...)
		if fd.i != nil {
			b = strconv.AppendInt(b, int64(*fd.i), 10)
			continue
		}
		// encoding/json's float64 format: shortest 'f', or 'e' with a
		// two-digit negative exponent trimmed (1e-07 -> 1e-7) outside
		// [1e-6, 1e21).
		v := *fd.f
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b, false
		}
		format := byte('f')
		if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		b = strconv.AppendFloat(b, v, format, -1, 64)
		if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return append(b, "}}"...), ok
}

func (p Point) String() string {
	var buf [96]byte
	b := append(buf[:0], p.App...)
	b = append(append(b, '/'), p.Cluster...)
	b = append(append(b, '/'), p.Protocol...)
	b = strconv.AppendInt(append(b, " n="...), int64(p.Nodes), 10)
	if p.ThreadsPerNode > 1 {
		b = strconv.AppendInt(append(b, " tpn="...), int64(p.ThreadsPerNode), 10)
	}
	if p.Override.Label != "" {
		b = append(append(append(b, " ["...), p.Override.Label...), ']')
	}
	return string(b)
}

// Platform resolves the point's cluster preset and engine costs with its
// override applied.
func (p Point) Platform() (model.Cluster, model.DSMCosts, error) {
	cl, err := ClusterByName(p.Cluster)
	if err != nil {
		return model.Cluster{}, model.DSMCosts{}, err
	}
	cl, costs := p.Override.Apply(cl, model.DefaultDSMCosts())
	if err := cl.Validate(); err != nil {
		return model.Cluster{}, model.DSMCosts{}, err
	}
	return cl, costs, nil
}

// Config builds the harness run configuration for the point.
func (p Point) Config() (harness.RunConfig, error) {
	cl, costs, err := p.Platform()
	if err != nil {
		return harness.RunConfig{}, err
	}
	return harness.RunConfig{
		Cluster:        cl,
		Nodes:          p.Nodes,
		Protocol:       p.Protocol,
		ThreadsPerNode: p.ThreadsPerNode,
		Costs:          &costs,
	}, nil
}

// Expand validates the spec and produces its explicit point list in
// deterministic order: app, cluster, cost override, threads per node,
// nodes, protocol — the row order of the grid CSVs. Node counts above a
// platform's MaxNodes are skipped for that platform. App names are
// validated against the built-in registry; an Executor with a custom
// NewApp expands against that factory instead.
func (s Spec) Expand() ([]Point, error) {
	return s.expand(func(name string) error {
		_, err := NewApp(name, false)
		return err
	})
}

// ExpandFor is Expand with app names validated against a custom factory;
// nil falls back to the built-in registry. This is the experiment
// server's submission-validation path, which must agree with the NewApp
// override its executors run with.
func (s Spec) ExpandFor(newApp func(name string, paperScale bool) (apps.App, error)) ([]Point, error) {
	if newApp == nil {
		newApp = NewApp
	}
	return s.expand(func(name string) error {
		_, err := newApp(name, s.PaperScale)
		return err
	})
}

// expand is Expand with a caller-supplied app-name validator.
func (s Spec) expand(validateApp func(string) error) ([]Point, error) {
	appNames := s.Apps
	if len(appNames) == 0 {
		appNames = AppNames()
	}
	for _, a := range appNames {
		if err := validateApp(a); err != nil {
			return nil, err
		}
	}
	clusterNames := s.Clusters
	if len(clusterNames) == 0 {
		clusterNames = []string{"myrinet", "sci"}
	}
	protocols := s.Protocols
	if len(protocols) == 0 {
		protocols = append([]string(nil), harness.Protocols...)
	}
	for _, proto := range protocols {
		if _, err := core.NewProtocol(proto); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	tpn := s.ThreadsPerNode
	if len(tpn) == 0 {
		tpn = []int{1}
	}
	for _, v := range tpn {
		if v <= 0 {
			return nil, fmt.Errorf("sweep: threads_per_node %d", v)
		}
	}
	for _, n := range s.Nodes {
		if n <= 0 {
			return nil, fmt.Errorf("sweep: node count %d", n)
		}
	}
	overrides := s.Costs
	if len(overrides) == 0 {
		overrides = []Override{{}}
	}
	repeats := s.Repeats
	if repeats < 1 {
		repeats = 1
	}

	// Bound the grid before materializing it: a degenerate spec (huge
	// or duplicated axes) must fail loudly, not exhaust memory. The
	// node axis is bounded per platform, so 16 over-estimates every
	// cluster's default 1..MaxNodes range.
	nodeAxis := len(s.Nodes)
	if nodeAxis == 0 {
		nodeAxis = 16
	}
	total := int64(1)
	for _, n := range []int{len(appNames), len(clusterNames), len(overrides), len(tpn), nodeAxis, len(protocols)} {
		total *= int64(n)
		if total > maxGridPoints {
			return nil, fmt.Errorf("sweep: spec %q expands to over %d points", s.Name, maxGridPoints)
		}
	}

	var points []Point
	for _, app := range appNames {
		for _, clName := range clusterNames {
			key, err := CanonicalCluster(clName)
			if err != nil {
				return nil, err
			}
			cl, _ := ClusterByName(key)
			nodes := s.Nodes
			if len(nodes) == 0 {
				nodes = harness.NodeCounts(cl)
			}
			for _, ov := range overrides {
				// Fail at expansion, not mid-sweep, on a bad override.
				ovCl, _ := ov.Apply(cl, model.DefaultDSMCosts())
				if err := ovCl.Validate(); err != nil {
					return nil, fmt.Errorf("sweep: override %q on %s: %w", ov.Label, key, err)
				}
				for _, t := range tpn {
					for _, n := range nodes {
						if n > cl.MaxNodes {
							continue
						}
						for _, proto := range protocols {
							points = append(points, Point{
								App:            app,
								Cluster:        key,
								Protocol:       proto,
								Nodes:          n,
								ThreadsPerNode: t,
								PaperScale:     s.PaperScale,
								Repeats:        repeats,
								Override:       ov,
							})
						}
					}
				}
			}
		}
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: spec %q expands to zero points", s.Name)
	}
	return points, nil
}
