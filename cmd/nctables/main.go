// Command nctables regenerates every table and figure of the Neural Cache
// paper's evaluation from the simulator and prints them alongside the
// paper's published values.
//
// Usage:
//
//	nctables -all
//	nctables -table1 -fig14
//	nctables -all -csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"neuralcache/internal/experiments"
	"neuralcache/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nctables: ")
	var (
		all       = flag.Bool("all", false, "print every table and figure")
		table1    = flag.Bool("table1", false, "Table I: Inception v3 layer parameters")
		table2    = flag.Bool("table2", false, "Table II: baseline configuration")
		table3    = flag.Bool("table3", false, "Table III: energy and power")
		table4    = flag.Bool("table4", false, "Table IV: cache-capacity scaling")
		fig12     = flag.Bool("fig12", false, "Figure 12: array area model")
		fig13     = flag.Bool("fig13", false, "Figure 13: per-layer latency")
		fig14     = flag.Bool("fig14", false, "Figure 14: latency breakdown")
		fig15     = flag.Bool("fig15", false, "Figure 15: total latency")
		fig16     = flag.Bool("fig16", false, "Figure 16: throughput vs batch")
		micro     = flag.Bool("micro", false, "§III arithmetic micro-results")
		caseStudy = flag.Bool("casestudy", false, "§VI-A Conv2D_2b case study")
		ablations = flag.Bool("ablations", false, "ablations of the §IV design choices")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()

	s, err := experiments.NewSuite()
	if err != nil {
		log.Fatal(err)
	}
	emit := func(t *report.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	printed := false
	run := func(enabled bool, gen func() (*report.Table, error)) {
		if !*all && !enabled {
			return
		}
		t, err := gen()
		if err != nil {
			log.Fatal(err)
		}
		emit(t)
		printed = true
	}

	run(*table1, func() (*report.Table, error) { return s.TableI(), nil })
	run(*table2, func() (*report.Table, error) { return s.TableII(), nil })
	run(*table3, func() (*report.Table, error) { t, _, err := s.TableIII(); return t, err })
	run(*table4, func() (*report.Table, error) { t, _, err := s.TableIV(); return t, err })
	run(*fig12, func() (*report.Table, error) { return s.Figure12(), nil })
	run(*fig13, func() (*report.Table, error) { return s.Figure13() })
	run(*fig14, func() (*report.Table, error) { t, _, err := s.Figure14(); return t, err })
	run(*fig15, func() (*report.Table, error) { t, _, err := s.Figure15(); return t, err })
	run(*fig16, func() (*report.Table, error) { t, _, err := s.Figure16(); return t, err })
	run(*micro, func() (*report.Table, error) { return s.Micro(), nil })
	run(*caseStudy, func() (*report.Table, error) { return s.CaseStudy() })
	run(*ablations, func() (*report.Table, error) { return s.Ablations() })

	if !printed {
		fmt.Fprintln(os.Stderr, "nothing selected; try -all")
		flag.Usage()
		os.Exit(2)
	}
}
