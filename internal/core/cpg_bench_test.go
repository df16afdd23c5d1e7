package core

import (
	"errors"
	"slices"
	"testing"

	"prefcolor/internal/ig"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// BenchmarkBuildCPG measures the steady-state CPG rebuild (the
// buildCPGInto path every spill round pays) into one reused CPG.
// "small" and "large" are single generated functions at k=6, where
// most nodes are significant and the step-7 pruning is dense. "rounds"
// replays, per op, the stacks of every round of the 40 workload.Large()
// functions allocated with pref-full on the ia64 usage model at k=16:
// the traffic the compile-large benchmark serves.
func BenchmarkBuildCPG(b *testing.B) {
	for _, sz := range []struct {
		name        string
		stmts, vars int
	}{
		{"small", 16, 8},
		{"large", 512, 160},
	} {
		b.Run(sz.name, func(b *testing.B) {
			profile := workload.Profile{
				Name: "cpgbench", Funcs: 1, Stmts: sz.stmts, MaxDepth: 3,
				LoopProb: 0.12, IfProb: 0.16, CallProb: 0, PairProb: 0.05,
				StoreProb: 0.10, Vars: sz.vars, Params: 0,
			}
			m := target.UsageModel(6)
			k := m.NumRegs
			f := workload.GenerateRawFunc(profile, m, 1)
			if _, err := ig.Renumber(f); err != nil {
				b.Fatal(err)
			}
			ctx, err := regalloc.NewContext(f, m, nil)
			if err != nil {
				b.Fatal(err)
			}
			stack, potential := simplifyOptimistic(ctx.Graph, k)
			b.Logf("nodes %d, stack %d", ctx.Graph.NumNodes(), len(stack))
			c := &CPG{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := buildCPGInto(c, ctx.Graph, stack, potential, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("rounds", func(b *testing.B) {
		m := target.UsageModel(16)
		sc := &stackCapture{}
		for _, f := range workload.Generate(workload.Large(), m) {
			if _, _, err := regalloc.Run(f, m, sc, regalloc.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.Logf("rounds %d", len(sc.inputs))
		c := &CPG{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, in := range sc.inputs {
				if err := buildCPGInto(c, in.g, in.stack, in.potential, m.NumRegs); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// cpgInput is one round's CPG construction input, on a graph of its
// own.
type cpgInput struct {
	g         *ig.Graph
	stack     []ig.NodeID
	potential []bool
}

// stackCapture is the pref-full allocator recording every round's CPG
// input. The round's own graph lives in the driver's workspace and is
// rebuilt by the next round, so each capture simplifies a fresh context
// over the same function, and checks that it reproduces the stack the
// round used.
type stackCapture struct {
	inputs []cpgInput
}

func (c *stackCapture) Name() string { return "pref-full" }

func (c *stackCapture) Allocate(ctx *regalloc.Context) (*regalloc.Result, error) {
	own, err := regalloc.NewContext(ctx.F.Clone(), ctx.Machine, slices.Clone(ctx.SpillTemp))
	if err != nil {
		return nil, err
	}
	stack, potential := simplifyOptimistic(own.Graph, ctx.K())
	res, err := New().Allocate(ctx)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(stack, coreScratchFor(ctx).order) {
		return nil, errors.New("stackCapture: a fresh context simplified to a different stack")
	}
	c.inputs = append(c.inputs, cpgInput{own.Graph, stack, potential})
	return res, nil
}
