// Command mtaskbench regenerates the tables and figures of the paper's
// evaluation. `mtaskbench -exp all` reproduces results/paper_scale.txt
// (apart from the "[... completed in ...]" timing lines).
//
// Usage:
//
//	mtaskbench -list
//	mtaskbench -exp fig14
//	mtaskbench -exp all
//	mtaskbench -exp fig15 -json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mtask/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run, or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	asJSON := flag.Bool("json", false, "emit tables as JSON instead of text")
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range bench.ExperimentIDs() {
			fmt.Printf("  %s\n", id)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.ExperimentIDs()
	}
	failed := false
	for _, id := range ids {
		start := time.Now()
		tables, err := bench.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtaskbench: %s: %v\n", id, err)
			failed = true
			continue
		}
		for _, t := range tables {
			if *asJSON {
				data, err := t.JSON()
				if err != nil {
					fmt.Fprintf(os.Stderr, "mtaskbench: %s: %v\n", id, err)
					failed = true
					continue
				}
				fmt.Println(string(data))
			} else {
				fmt.Println(t.Format())
			}
		}
		if !*asJSON {
			fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if failed {
		os.Exit(1)
	}
}
