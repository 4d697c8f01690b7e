package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/asp"
	"repro/internal/apps/barnes"
	"repro/internal/apps/jacobi"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
)

// protocols is every registered protocol, in the order the benchmark
// runs and names them.
var protocols = []string{"java_ic", "java_pf", "java_up", "java_hlrc"}

// barrierApp is one of the three barrier-synchronised programs of the
// access_bound workload. Their simulated statistics repeat exactly, so
// a speed-only change must reproduce the committed fingerprints.
type barrierApp struct {
	name string
	make func() apps.App
	// pfBeatsIC marks the programs on which the paper claims java_pf
	// beats java_ic at four nodes; the batch checks the direction. (At
	// quick mode's sizes faults outweigh checks and it does not hold.)
	pfBeatsIC bool
}

// barrierApps returns the batch's programs: default scale for a
// measured run, small instances in quick mode (their fingerprints are
// committed under their own keys).
func barrierApps(quick bool) []barrierApp {
	if quick {
		return []barrierApp{
			{"quick.jacobi", func() apps.App { return jacobi.New(32, 4) }, false},
			{"quick.barnes", func() apps.App { return barnes.New(64, 1, 1) }, false},
			{"quick.asp", func() apps.App { return asp.New(32, 1) }, false},
		}
	}
	return []barrierApp{
		{"jacobi", func() apps.App { return jacobi.Default() }, true},
		{"barnes", func() apps.App { return barnes.Default() }, false},
		{"asp", func() apps.App { return asp.New(128, 1) }, true},
	}
}

// pointCfg is the platform every access_bound and sync_bound point runs
// on: the paper's Myrinet cluster, four nodes.
func pointCfg(proto string) harness.RunConfig {
	return harness.RunConfig{Cluster: model.Myrinet200(), Nodes: 4, Protocol: proto}
}

// fingerprint is the simulated outcome of one point: everything the
// model computes that must not depend on the host. BarrierWaitCycles is
// left out, as in the conformance suite: it depends on the order in
// which host goroutines reach a barrier.
type fingerprint struct {
	TimePS   int64            `json:"time_ps"`
	Messages int64            `json:"messages"`
	Bytes    int64            `json:"bytes"`
	Stats    map[string]int64 `json:"stats"`
}

func fingerprintOf(r harness.Result) fingerprint {
	fp := fingerprint{TimePS: int64(r.Time), Messages: r.Messages, Bytes: r.Bytes, Stats: map[string]int64{}}
	for _, name := range core.NodeStatNames() {
		if name == "barrier_wait_cycles" {
			continue
		}
		v, _ := r.RunStats.Total.Get(name)
		fp.Stats[name] = v
	}
	return fp
}

// expectedFile is benchmark/expected.json: the seed-independent
// fingerprints, keyed "<app>/<protocol>". Only -update-expected writes
// it.
type expectedFile struct {
	Comment string                 `json:"comment"`
	Points  map[string]fingerprint `json:"points"`
}

func loadExpected(path string) (*expectedFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// updateExpected regenerates the fingerprints of both size classes.
func updateExpected(path string) error {
	f := expectedFile{
		Comment: "Simulated fingerprints of the access_bound points (Myrinet, 4 nodes). Regenerate only with -update-expected, and only in a change that says it changes the model.",
		Points:  map[string]fingerprint{},
	}
	for _, quick := range []bool{false, true} {
		for _, app := range barrierApps(quick) {
			for _, proto := range protocols {
				res, err := harness.Run(app.make(), pointCfg(proto))
				if err != nil {
					return err
				}
				if !res.Check.Valid {
					return fmt.Errorf("%s/%s failed its own validation: %s", app.name, proto, res.Check.Summary)
				}
				f.Points[app.name+"/"+proto] = fingerprintOf(res)
			}
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// accessPoint is one (program, protocol) pair of the batch.
type accessPoint struct {
	app   barrierApp
	proto string
}

type accessInstance struct {
	points []accessPoint
}

func setupAccess(e *env) (instance, error) {
	inst := &accessInstance{}
	for _, app := range barrierApps(e.quick) {
		for _, proto := range protocols {
			inst.points = append(inst.points, accessPoint{app, proto})
		}
	}
	// Warm-up: the first program under every protocol, discarded. It
	// pages the code in and grows the heap to its working size.
	for _, proto := range protocols {
		if _, err := harness.Run(inst.points[0].app.make(), pointCfg(proto)); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

func (a *accessInstance) close() {}

// checkPoint applies the output checks of one finished point.
func (a *accessInstance) checkPoint(e *env, p accessPoint, res harness.Result, err error) {
	key := p.app.name + "/" + p.proto
	if !e.check(err == nil, "%s: %v", key, err) {
		return
	}
	e.check(res.Check.Valid, "%s failed its own validation: %s", key, res.Check.Summary)
	want, ok := e.expected.Points[key]
	got := fingerprintOf(res)
	e.check(ok && reflect.DeepEqual(got, want), "%s: simulated fingerprint %+v differs from expected.json's %+v", key, got, want)
}

// batch runs the batch's points in the given order through run, checks
// each, and returns the batch's simulated access count and each point's
// latency.
func (a *accessInstance) batch(e *env, order []int, run func(p accessPoint, op string) (harness.Result, error)) (accesses float64, opMS []float64) {
	checks := map[string]int64{} // program -> locality checks of its java_ic run
	virt := map[string]int64{}
	for _, i := range order {
		p := a.points[i]
		t0 := time.Now()
		res, err := run(p, p.app.name+"/"+p.proto)
		opMS = append(opMS, ms(time.Since(t0)))
		a.checkPoint(e, p, res, err)
		if p.proto == "java_ic" {
			checks[p.app.name] = res.RunStats.Total.LocalityChecks
		}
		virt[p.app.name+"/"+p.proto] = int64(res.Time)
	}
	// java_ic performs one locality check per get/put, so its check
	// count is the program's access count under every protocol.
	for _, n := range checks {
		accesses += float64(n) * float64(len(protocols))
	}
	// The paper's claim, as a direction: java_pf beats java_ic where
	// accesses dominate.
	for _, p := range a.points {
		if p.proto != "java_pf" || !p.app.pfBeatsIC {
			continue
		}
		ic, pf := virt[p.app.name+"/java_ic"], virt[p.app.name+"/java_pf"]
		e.check(pf < ic, "%s: java_pf (%d ps) does not beat java_ic (%d ps)", p.app.name, pf, ic)
	}
	return accesses, opMS
}

// product runs a point through the product's own call.
func product(p accessPoint, _ string) (harness.Result, error) {
	return harness.Run(p.app.make(), pointCfg(p.proto))
}

func (a *accessInstance) measure(e *env, deadline time.Time) region {
	var reg region
	rng := e.rng("access_bound.order")
	repeatUntil(deadline, e.pick(3, 2), func() {
		order := rng.Perm(len(a.points))
		t0 := time.Now()
		accesses, opMS := a.batch(e, order, product)
		wall := time.Since(t0)
		reg.work = append(reg.work, accesses/wall.Seconds())
		reg.jobMS = append(reg.jobMS, ms(wall))
		reg.opMS = append(reg.opMS, opMS...)
		reg.reqs += len(order)
	})
	return reg
}

func (a *accessInstance) traced(e *env) tracedPass {
	order := e.rng("access_bound.order").Perm(len(a.points))
	t0 := time.Now()
	a.batch(e, order, product)
	untraced := time.Since(t0)

	t0 = time.Now()
	root := e.tr.begin(-1, 0, "benchmark", "access_bound.batch", "batch")
	a.batch(e, order, func(p accessPoint, op string) (harness.Result, error) {
		return replicaPoint(e.tr, root, 0, op, p.app.make(), pointCfg(p.proto))
	})
	e.tr.end(root)
	return tracedPass{untracedS: untraced.Seconds(), tracedS: time.Since(t0).Seconds(), replica: true}
}
