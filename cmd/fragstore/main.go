// Command fragstore is an interactive shell over the blob-repository API:
// a miniature of the paper's test driver you can steer by hand. It builds
// a filesystem-backed and/or database-backed store on simulated drives
// and accepts get/put/replace/delete plus analysis commands.
//
// Usage:
//
//	fragstore [-backend fs|db|both] [-capacity 1G]
//
// Commands (type `help` at the prompt):
//
//	put <key> <size>       store a new object, e.g. put a 256K
//	get <key>              read an object
//	replace <key> <size>   safe-write replace
//	delete <key>           delete
//	ls                     list objects
//	frag                   fragmentation report
//	age                    storage age and live bytes
//	stats                  drive and engine counters
//	churn <n> <size>       n random safe writes of the given size
//	fill <frac> <size>     bulk load to a fraction of capacity
//	quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

type session struct {
	ctx      context.Context
	repos    []blob.Store
	trackers map[string]*core.AgeTracker
	rngState uint64
}

func (s *session) rand(n int) int {
	// xorshift: deterministic without seeding ceremony.
	s.rngState ^= s.rngState << 13
	s.rngState ^= s.rngState >> 7
	s.rngState ^= s.rngState << 17
	return int(s.rngState % uint64(n))
}

func main() {
	backend := flag.String("backend", "both", "fs, db, or both")
	capacity := flag.String("capacity", "1G", "volume capacity")
	flag.Parse()

	capBytes, err := units.ParseBytes(*capacity)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragstore: %v\n", err)
		os.Exit(2)
	}
	s := &session{ctx: context.Background(), trackers: map[string]*core.AgeTracker{}, rngState: 0x9E3779B97F4A7C15}
	backends, ok := map[string][]string{
		"fs": {stack.File}, "db": {stack.DB}, "both": {stack.File, stack.DB},
	}[*backend]
	if !ok {
		fmt.Fprintf(os.Stderr, "fragstore: unknown backend %q\n", *backend)
		os.Exit(2)
	}
	// One single-volume stack per backend, each on a clock of its own.
	for _, b := range backends {
		st, err := stack.Build(vclock.New(), stack.Spec{Backends: []string{b}, Capacity: capBytes})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fragstore: %v\n", err)
			os.Exit(2)
		}
		s.repos = append(s.repos, st)
	}
	for _, r := range s.repos {
		s.trackers[r.Name()] = core.NewAgeTracker(r)
	}

	fmt.Printf("fragstore: %s on %s volumes (type `help`)\n", *backend, units.FormatBytes(capBytes))
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for scanner.Scan() {
		line := strings.Fields(strings.TrimSpace(scanner.Text()))
		if len(line) > 0 {
			if line[0] == "quit" || line[0] == "exit" {
				return
			}
			s.dispatch(line)
		}
		fmt.Print("> ")
	}
}

func (s *session) dispatch(args []string) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Printf("error: %v\n", r)
		}
	}()
	cmd := args[0]
	switch cmd {
	case "help":
		fmt.Println("put <key> <size> | get <key> | replace <key> <size> | delete <key>")
		fmt.Println("ls | frag | age | stats | churn <n> <size> | fill <frac> <size> | quit")
	case "put", "replace":
		if len(args) != 3 {
			fmt.Printf("usage: %s <key> <size>\n", cmd)
			return
		}
		size, err := units.ParseBytes(args[2])
		if err != nil {
			fmt.Println(err)
			return
		}
		for _, r := range s.repos {
			tr := s.trackers[r.Name()]
			var opErr error
			if cmd == "put" {
				opErr = tr.Put(s.ctx, args[1], size, nil)
			} else {
				opErr = tr.Replace(s.ctx, args[1], size, nil)
			}
			if opErr != nil {
				fmt.Printf("%s: %v\n", r.Name(), opErr)
			} else {
				fmt.Printf("%s: ok (%.2f ms virtual)\n", r.Name(), r.Clock().Seconds()*1000)
			}
		}
	case "get":
		if len(args) != 2 {
			fmt.Println("usage: get <key>")
			return
		}
		for _, r := range s.repos {
			before := r.Clock().Seconds()
			n, _, err := blob.Get(s.ctx, r, args[1])
			if err != nil {
				fmt.Printf("%s: %v\n", r.Name(), err)
				continue
			}
			dt := r.Clock().Seconds() - before
			fmt.Printf("%s: %s in %.2f ms virtual (%.1f MB/s)\n",
				r.Name(), units.FormatBytes(n), dt*1000, units.MBps(n, dt))
		}
	case "delete":
		if len(args) != 2 {
			fmt.Println("usage: delete <key>")
			return
		}
		for _, r := range s.repos {
			if err := s.trackers[r.Name()].Delete(s.ctx, args[1]); err != nil {
				fmt.Printf("%s: %v\n", r.Name(), err)
			} else {
				fmt.Printf("%s: deleted\n", r.Name())
			}
		}
	case "ls":
		r := s.repos[0]
		keys := r.Keys()
		sort.Strings(keys)
		for _, k := range keys {
			info, _ := r.Stat(s.ctx, k)
			fmt.Printf("%-40s %s\n", k, units.FormatBytes(info.Size))
		}
		fmt.Printf("%d objects\n", len(keys))
	case "frag":
		for _, r := range s.repos {
			rep := frag.Analyze(r)
			fmt.Printf("%s: %s (%.2f fragments per 64KB)\n", r.Name(), rep, rep.FragmentsPer64KB())
		}
	case "age":
		for _, r := range s.repos {
			tr := s.trackers[r.Name()]
			fmt.Printf("%s: storage age %.2f, %s live, %s free\n",
				r.Name(), tr.Age(), units.FormatBytes(r.LiveBytes()), units.FormatBytes(r.FreeBytes()))
		}
	case "stats":
		for _, r := range s.repos {
			fmt.Printf("%s: %d objects, %.1f s virtual elapsed\n",
				r.Name(), r.ObjectCount(), r.Clock().Seconds())
		}
	case "churn":
		if len(args) != 3 {
			fmt.Println("usage: churn <n> <size>")
			return
		}
		n, err1 := strconv.Atoi(args[1])
		size, err2 := units.ParseBytes(args[2])
		if err1 != nil || err2 != nil || n <= 0 {
			fmt.Println("usage: churn <n> <size>")
			return
		}
		for _, r := range s.repos {
			keys := r.Keys()
			if len(keys) == 0 {
				fmt.Printf("%s: empty store, `fill` first\n", r.Name())
				continue
			}
			tr := s.trackers[r.Name()]
			for i := 0; i < n; i++ {
				k := keys[s.rand(len(keys))]
				if err := tr.Replace(s.ctx, k, size, nil); err != nil {
					fmt.Printf("%s: %v\n", r.Name(), err)
					break
				}
			}
			fmt.Printf("%s: churned %d, storage age now %.2f\n", r.Name(), n, tr.Age())
		}
	case "fill":
		if len(args) != 3 {
			fmt.Println("usage: fill <frac> <size>")
			return
		}
		frac, err1 := strconv.ParseFloat(args[1], 64)
		size, err2 := units.ParseBytes(args[2])
		if err1 != nil || err2 != nil || frac <= 0 || frac >= 1 {
			fmt.Println("usage: fill <frac 0..1> <size>")
			return
		}
		for _, r := range s.repos {
			tr := s.trackers[r.Name()]
			i := r.ObjectCount()
			for float64(r.LiveBytes()+size) <= frac*float64(r.CapacityBytes()) {
				if err := tr.Put(s.ctx, fmt.Sprintf("obj-%06d", i), size, nil); err != nil {
					fmt.Printf("%s: %v\n", r.Name(), err)
					break
				}
				i++
			}
			fmt.Printf("%s: %d objects, %s live\n", r.Name(), r.ObjectCount(), units.FormatBytes(r.LiveBytes()))
		}
	default:
		fmt.Printf("unknown command %q (try help)\n", cmd)
	}
}
