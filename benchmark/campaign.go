package main

import (
	"fmt"
	"slices"
	"time"

	"parcoach"
	"parcoach/internal/workload"
)

const (
	// campaignCorpus is how many consecutive generator seeds the campaign
	// corpus holds; a run measures whole cycles through it.
	campaignCorpus = 50
	// campaignMaxSteps bounds every campaign run, so runs that spin end
	// budget-exhausted at a fixed cost.
	campaignMaxSteps = 100_000
)

// campaignInput is one campaign op's seed program and ground truth.
type campaignInput struct {
	seed uint64
	// prog is the seed program; the op compiles it directly only to
	// time compile_ms.p50.
	prog input
	// want is the planted-bug labels the campaign must catch.
	want []string
}

// campaign runs one coverage-guided campaign at the default budget per
// op, each seeded with one corpus program and using that program's
// generator seed as its master seed, so every campaign is a fixed
// amount of work. The corpus is fixed; the seed sets where the run
// starts in it.
type campaign struct {
	start  int
	inputs []campaignInput
}

func setupCampaign(seed int64) (runner, error) {
	c := &campaign{start: rotation(seed, campaignCorpus)}
	for k := 0; k < campaignCorpus; k++ {
		s := corpusFirst + uint64(k)
		in := campaignInput{seed: s, prog: generated(s)}
		if in.prog.bug != workload.BugNone {
			in.want = []string{fmt.Sprintf("s%d:%s", s, in.prog.bug)}
		}
		c.inputs = append(c.inputs, in)
	}
	return c, nil
}

func (c *campaign) clients() int { return 1 }
func (c *campaign) cycle() int   { return len(c.inputs) }
func (c *campaign) close()       {}

func (c *campaign) input(i int) campaignInput { return c.inputs[(c.start+i)%len(c.inputs)] }

func (c *campaign) options(i int, noReduce bool) parcoach.CampaignOptions {
	return parcoach.CampaignOptions{
		Seeds:    []uint64{c.input(i).seed},
		Seed:     c.input(i).seed,
		Workers:  1,
		MaxSteps: campaignMaxSteps,
		NoReduce: noReduce,
	}
}

func (c *campaign) op(i, _ int, sp spanner) sample {
	in := c.input(i)
	s := sample{input: in.prog.name, layer: &layerObs{}}
	start := time.Now()
	end := sp.span("compile")
	p, err := compileFull(in.prog)
	end()
	if err != nil {
		s.failure = fmt.Sprintf("%s: compile: %v", in.prog.name, err)
		s.verdict = time.Since(start)
		return s
	}
	s.compile = p.Timing.Total
	s.layer.addCompile(p)

	end = sp.span("campaign")
	t := time.Now()
	rep, err := parcoach.Campaign(c.options(i, false))
	d := time.Since(t)
	end()
	s.verdict = time.Since(start)
	if err != nil {
		s.failure = fmt.Sprintf("campaign: %v", err)
		return s
	}
	s.layer.addCampaign(rep, d)
	s.schedules = rep.Runs
	s.failure = judgeCampaign(in.want, rep)
	return s
}

// judgeCampaign checks that the campaign caught exactly the planted
// bugs of its seed corpus and ran to completion.
func judgeCampaign(want []string, rep *parcoach.CampaignReport) string {
	if rep.Canceled || rep.Quarantined > 0 {
		return fmt.Sprintf("campaign canceled=%t quarantined=%d", rep.Canceled, rep.Quarantined)
	}
	if !slices.Equal(rep.Bugs, want) {
		return fmt.Sprintf("caught %v, want %v", rep.Bugs, want)
	}
	return ""
}

// probe reruns every traced campaign with reduction off: campaign.reduce_s
// is the time the reducer adds per campaign.
func (c *campaign) probe(s []sample, m metrics) {
	var full, noReduce time.Duration
	n := 0
	for _, x := range s {
		if x.layer == nil || x.layer.campaigns == 0 {
			continue
		}
		t := time.Now()
		if _, err := parcoach.Campaign(c.options(x.index, true)); err != nil {
			continue
		}
		noReduce += time.Since(t)
		full += x.layer.campaignTime
		n++
	}
	m.set("campaign.reduce_s", per((full-noReduce).Seconds(), n), "s")
}
