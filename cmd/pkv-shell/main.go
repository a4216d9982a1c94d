// pkv-shell is an interactive explorer for PapyrusKV: it starts an SPMD
// cluster in the background and lets you drive the store rank by rank from
// a REPL — useful for demos and for building intuition about ownership,
// staging, and synchronization points.
//
// Usage:
//
//	pkv-shell [-ranks N] [-system NAME] [-scale F] [-dir PATH]
//
// Commands (RANK selects which rank issues the operation):
//
//	put RANK KEY VALUE      insert or update a pair
//	get RANK KEY            retrieve a value
//	del RANK KEY            delete a pair
//	owner KEY               show the key's owner rank
//	fence RANK              migrate RANK's staged remote puts
//	barrier [mem|sst]       collective barrier (default mem)
//	consistency rel|seq     switch consistency mode (collective)
//	protect rdwr|wronly|rdonly
//	metrics RANK            print every counter of RANK's snapshot, by name
//	sstables                per-rank SSTable counts
//	help                    this text
//	quit                    close the database and exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"papyruskv"
)

// request is one REPL command dispatched to a rank goroutine.
type request struct {
	fn   func(ctx *papyruskv.Context, db *papyruskv.DB) (string, error)
	resp chan string
}

func main() {
	ranks := flag.Int("ranks", 4, "number of SPMD ranks")
	system := flag.String("system", "summitdev", "system profile")
	scale := flag.Float64("scale", 0, "time scale for performance models")
	dir := flag.String("dir", "", "device directory (default: temp)")
	flag.Parse()

	if *dir == "" {
		d, err := os.MkdirTemp("", "pkv-shell-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(d)
		*dir = d
	}
	cluster, err := papyruskv.NewCluster(papyruskv.ClusterConfig{
		Ranks: *ranks, Dir: *dir, System: *system, TimeScale: *scale,
	})
	if err != nil {
		fatal(err)
	}

	// Each rank goroutine serves commands from its own channel;
	// collective commands are broadcast to every rank.
	chans := make([]chan request, *ranks)
	for i := range chans {
		chans[i] = make(chan request)
	}
	done := make(chan error, 1)
	go func() {
		done <- cluster.Run(func(ctx *papyruskv.Context) error {
			db, err := ctx.Open("shell", nil)
			if err != nil {
				return err
			}
			for req := range chans[ctx.Rank()] {
				out, err := req.fn(ctx, db)
				if err != nil {
					out = "error: " + err.Error()
				}
				req.resp <- out
			}
			return db.Close()
		})
	}()

	fmt.Printf("pkv-shell: %d ranks on %s — type 'help'\n", *ranks, *system)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("pkv> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		args := strings.Fields(line)
		if args[0] == "quit" || args[0] == "exit" {
			break
		}
		if out := dispatch(args, chans, *ranks); out != "" {
			fmt.Println(out)
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	if err := <-done; err != nil {
		fatal(err)
	}
	fmt.Println("bye")
}

// ask sends a command to one rank and waits for its reply.
func ask(chans []chan request, rank int, fn func(*papyruskv.Context, *papyruskv.DB) (string, error)) string {
	resp := make(chan string, 1)
	chans[rank] <- request{fn: fn, resp: resp}
	return <-resp
}

// askAll broadcasts a collective command to every rank concurrently (it
// would deadlock otherwise) and returns rank 0's reply.
func askAll(chans []chan request, fn func(*papyruskv.Context, *papyruskv.DB) (string, error)) string {
	resps := make([]chan string, len(chans))
	for r := range chans {
		resps[r] = make(chan string, 1)
		chans[r] <- request{fn: fn, resp: resps[r]}
	}
	out := ""
	for r := range chans {
		reply := <-resps[r]
		if r == 0 {
			out = reply
		}
	}
	return out
}

func dispatch(args []string, chans []chan request, ranks int) string {
	bad := func(usage string) string { return "usage: " + usage }
	parseRank := func(s string) (int, bool) {
		r, err := strconv.Atoi(s)
		return r, err == nil && r >= 0 && r < ranks
	}
	switch args[0] {
	case "help":
		return "put RANK KEY VALUE | get RANK KEY | del RANK KEY | owner KEY |\n" +
			"fence RANK | barrier [mem|sst] | consistency rel|seq |\n" +
			"protect rdwr|wronly|rdonly | metrics RANK | sstables | quit"
	case "put":
		if len(args) != 4 {
			return bad("put RANK KEY VALUE")
		}
		r, ok := parseRank(args[1])
		if !ok {
			return "bad rank"
		}
		return ask(chans, r, func(ctx *papyruskv.Context, db *papyruskv.DB) (string, error) {
			if err := db.Put([]byte(args[2]), []byte(args[3])); err != nil {
				return "", err
			}
			return fmt.Sprintf("ok (owner: rank %d)", db.Owner([]byte(args[2]))), nil
		})
	case "get":
		if len(args) != 3 {
			return bad("get RANK KEY")
		}
		r, ok := parseRank(args[1])
		if !ok {
			return "bad rank"
		}
		return ask(chans, r, func(ctx *papyruskv.Context, db *papyruskv.DB) (string, error) {
			v, err := db.Get([]byte(args[2]))
			if err != nil {
				return "", err
			}
			return string(v), nil
		})
	case "del":
		if len(args) != 3 {
			return bad("del RANK KEY")
		}
		r, ok := parseRank(args[1])
		if !ok {
			return "bad rank"
		}
		return ask(chans, r, func(ctx *papyruskv.Context, db *papyruskv.DB) (string, error) {
			if err := db.Delete([]byte(args[2])); err != nil {
				return "", err
			}
			return "ok", nil
		})
	case "owner":
		if len(args) != 2 {
			return bad("owner KEY")
		}
		return ask(chans, 0, func(ctx *papyruskv.Context, db *papyruskv.DB) (string, error) {
			return fmt.Sprintf("rank %d", db.Owner([]byte(args[1]))), nil
		})
	case "fence":
		if len(args) != 2 {
			return bad("fence RANK")
		}
		r, ok := parseRank(args[1])
		if !ok {
			return "bad rank"
		}
		return ask(chans, r, func(ctx *papyruskv.Context, db *papyruskv.DB) (string, error) {
			return "ok", db.Fence()
		})
	case "barrier":
		level := papyruskv.MemTableLevel
		if len(args) == 2 && args[1] == "sst" {
			level = papyruskv.SSTableLevel
		}
		return askAll(chans, func(ctx *papyruskv.Context, db *papyruskv.DB) (string, error) {
			return "ok", db.Barrier(level)
		})
	case "consistency":
		if len(args) != 2 {
			return bad("consistency rel|seq")
		}
		mode := papyruskv.Relaxed
		if args[1] == "seq" {
			mode = papyruskv.Sequential
		}
		return askAll(chans, func(ctx *papyruskv.Context, db *papyruskv.DB) (string, error) {
			return "ok: " + mode.String(), db.SetConsistency(mode)
		})
	case "protect":
		if len(args) != 2 {
			return bad("protect rdwr|wronly|rdonly")
		}
		var p papyruskv.Protection
		switch args[1] {
		case "rdwr":
			p = papyruskv.RDWR
		case "wronly":
			p = papyruskv.WRONLY
		case "rdonly":
			p = papyruskv.RDONLY
		default:
			return bad("protect rdwr|wronly|rdonly")
		}
		return askAll(chans, func(ctx *papyruskv.Context, db *papyruskv.DB) (string, error) {
			return "ok: " + p.String(), db.SetProtection(p)
		})
	case "metrics":
		if len(args) != 2 {
			return bad("metrics RANK")
		}
		r, ok := parseRank(args[1])
		if !ok {
			return "bad rank"
		}
		return ask(chans, r, func(ctx *papyruskv.Context, db *papyruskv.DB) (string, error) {
			var b strings.Builder
			snap := db.Metrics().Snapshot()
			for _, k := range slices.Sorted(maps.Keys(snap)) {
				fmt.Fprintf(&b, "%-26s %d\n", k, snap[k])
			}
			return strings.TrimRight(b.String(), "\n"), nil
		})
	case "sstables":
		var b strings.Builder
		for r := 0; r < ranks; r++ {
			out := ask(chans, r, func(ctx *papyruskv.Context, db *papyruskv.DB) (string, error) {
				return fmt.Sprintf("rank %d: %d SSTables", ctx.Rank(), db.SSTableCount()), nil
			})
			b.WriteString(out)
			if r != ranks-1 {
				b.WriteString("\n")
			}
		}
		return b.String()
	default:
		return "unknown command (try 'help')"
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pkv-shell:", err)
	os.Exit(1)
}
