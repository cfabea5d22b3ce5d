package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/serve"
	"repro/internal/source"
	"repro/ipcp"
)

// oracle holds the entry values the reference interpreter observed for
// one program text: per procedure, per formal ("F:name") or COMMON
// member ("G:block/name"), the value seen on every recorded entry, or
// varies when two entries disagreed. A claimed constant is contradicted
// when the procedure ran and any observed entry value differs.
type oracle struct {
	procs map[string]map[string]observed
}

type observed struct {
	value  int64
	varies bool
}

// errSkipped marks a program the interpreter cannot run to completion
// within its step limit; such programs are skipped deterministically.
var errSkipped = errors.New("program exceeds the interpreter's step limit")

func buildOracle(name, src string) (*oracle, error) {
	var diags source.ErrorList
	f := parser.ParseSource(name, src, &diags)
	prog := sem.Analyze(f, &diags)
	if diags.HasErrors() {
		return nil, fmt.Errorf("%s: %v", name, diags.Err())
	}
	run, err := interp.Run(prog, interp.Options{})
	if errors.Is(err, interp.ErrStepLimit) {
		return nil, errSkipped
	}
	if err != nil {
		return nil, fmt.Errorf("%s: interpreter: %w", name, err)
	}
	o := &oracle{procs: make(map[string]map[string]observed)}
	for p, snaps := range run.Entries {
		if len(snaps) == 0 {
			continue
		}
		vals := make(map[string]observed)
		note := func(key string, v int64) {
			if ob, ok := vals[key]; ok {
				if ob.value != v {
					ob.varies = true
					vals[key] = ob
				}
				return
			}
			vals[key] = observed{value: v}
		}
		for _, s := range snaps {
			for i, v := range s.Formals {
				note("F:"+p.Formals[i].Name, v)
			}
			for g, v := range s.Globals {
				note("G:"+g.Block+"/"+g.Name, v)
			}
		}
		o.procs[p.Name] = vals
	}
	return o, nil
}

// verdict counts contradicted constants and describes the first one.
type verdict struct {
	wrong int
	first string
}

// check records one claimed entry constant, contradicted when it
// disagrees with an observed execution. A nil oracle (a skipped
// program) contradicts nothing.
func (o *oracle) check(v *verdict, proc, name string, global bool, block string, value int64) {
	if o == nil {
		return
	}
	vals, ran := o.procs[proc]
	if !ran {
		return // never called at run time: vacuously sound
	}
	key := "F:" + name
	if global {
		key = "G:" + block + "/" + name
	}
	ob, ok := vals[key]
	if !ok || (!ob.varies && ob.value == value) {
		return
	}
	if v.wrong == 0 {
		v.first = fmt.Sprintf("%s %s claimed %d, observed %d (varies=%v)", proc, key, value, ob.value, ob.varies)
	}
	v.wrong++
}

// checkResult checks every constant of an analysis result.
func (o *oracle) checkResult(res *ipcp.Result) verdict {
	var v verdict
	for proc, ks := range res.Constants() {
		for _, k := range ks {
			o.check(&v, proc, k.Name, k.IsGlobal, k.Block, k.Value)
		}
	}
	return v
}

// checkResponse is checkResult for an HTTP response body.
func (o *oracle) checkResponse(consts map[string][]serve.ConstantJSON) verdict {
	var v verdict
	for proc, ks := range consts {
		for _, k := range ks {
			o.check(&v, proc, k.Name, k.Global, k.Block, k.Value)
		}
	}
	return v
}

// buildOracles runs the interpreter over every text on a bounded worker
// pool. Skipped programs get a nil oracle and are counted.
func buildOracles(names, texts []string) ([]*oracle, int, error) {
	out := make([]*oracle, len(texts))
	errs := make([]error, len(texts))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = buildOracle(names[i], texts[i])
			}
		}()
	}
	for i := range texts {
		next <- i
	}
	close(next)
	wg.Wait()
	skipped := 0
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, errSkipped):
			skipped++
		default:
			return nil, 0, err
		}
	}
	return out, skipped, nil
}
