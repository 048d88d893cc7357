// Command portalctl is the command-line client for the portal's HTTP API —
// the scripted equivalent of the web UI's file manager and job monitor.
//
// Usage:
//
//	portalctl -url http://localhost:8080 -user alice -pass secret1 <command>
//
// Commands:
//
//	register                      create the account
//	ls [path]                     list a home directory
//	put <local> <remote>          upload a file
//	get <remote>                  print a file
//	rm <remote>                   delete a file or tree
//	compile <remote> [lang]       compile only, printing diagnostics
//	run <remote> [ranks]          submit, stream output live, wait for the result
//	watch <job-id>                follow a job's output live (SSE)
//	jobs [state] [limit]          list jobs, optionally filtered and capped
//	trace <job-id>                print the job's lifecycle span tree
//	cancel <job-id>               cancel a queued or running job
//	stats                         cluster summary
//	events                        activity feed (job steps, allocations)
//	format <remote>               pretty-print a minic source in place
//	usage [user]                  resource standing (own, or any user's — admin)
//	limits <user> [key=val...]    show or set limit overrides (admin);
//	                              keys: quota steps jobs rate burst weight
//	backup <file>                 download a state snapshot (admin)
//	restore <file>                upload a state snapshot (admin)
//	persistence                   data provider status (admin)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	ccportal "repro"
)

func main() {
	var (
		url  = flag.String("url", "http://localhost:8080", "portal base URL")
		user = flag.String("user", "", "username")
		pass = flag.String("pass", "", "password")
	)
	flag.Parse()
	if err := run(*url, *user, *pass, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "portalctl:", err)
		os.Exit(1)
	}
}

func run(url, user, pass string, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("no command; see -h")
	}
	c := ccportal.NewClient(url)
	cmd, rest := args[0], args[1:]

	if user == "" || pass == "" {
		return fmt.Errorf("-user and -pass are required")
	}
	if cmd == "register" {
		if err := c.Register(user, pass); err != nil {
			return err
		}
		fmt.Println("registered", user)
		return nil
	}
	if err := c.Login(user, pass); err != nil {
		return err
	}

	switch cmd {
	case "ls":
		path := "/"
		if len(rest) > 0 {
			path = rest[0]
		}
		infos, err := c.List(path)
		if err != nil {
			return err
		}
		for _, in := range infos {
			kind := "file"
			if in.Dir {
				kind = "dir "
			}
			fmt.Printf("%s %8d  %s\n", kind, in.Size, in.Path)
		}
		return nil
	case "put":
		if len(rest) != 2 {
			return fmt.Errorf("put needs <local> <remote>")
		}
		data, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		if err := c.Upload(rest[1], data); err != nil {
			return err
		}
		fmt.Printf("uploaded %s (%d bytes)\n", rest[1], len(data))
		return nil
	case "get":
		if len(rest) != 1 {
			return fmt.Errorf("get needs <remote>")
		}
		data, err := c.Download(rest[0])
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		return nil
	case "rm":
		if len(rest) != 1 {
			return fmt.Errorf("rm needs <remote>")
		}
		return c.Remove(rest[0], true)
	case "compile":
		if len(rest) < 1 {
			return fmt.Errorf("compile needs <remote> [lang]")
		}
		lang := "auto"
		if len(rest) > 1 {
			lang = rest[1]
		}
		res, err := c.Compile(rest[0], lang)
		if err != nil {
			return err
		}
		if res.OK {
			fmt.Printf("ok: artifact %s (language %s, cached %v)\n", res.Artifact, res.Language, res.Cached)
			return nil
		}
		for _, d := range res.Diagnostics {
			fmt.Println(d)
		}
		return fmt.Errorf("compilation failed")
	case "run":
		if len(rest) < 1 {
			return fmt.Errorf("run needs <remote> [ranks]")
		}
		ranks := 1
		if len(rest) > 1 {
			n, err := strconv.Atoi(rest[1])
			if err != nil {
				return fmt.Errorf("bad rank count %q", rest[1])
			}
			ranks = n
		}
		job, err := c.Submit(rest[0], "auto", ranks, "")
		if err != nil {
			return err
		}
		fmt.Printf("submitted %s (%d ranks)\n", job.ID, ranks)
		state, err := watchJob(c, job.ID, 10*time.Minute)
		if err != nil {
			return err
		}
		fmt.Printf("[%s]\n", state)
		if state != "succeeded" {
			final, err := c.JobStatus(job.ID)
			if err != nil {
				return err
			}
			return fmt.Errorf("%s", final.Failure)
		}
		return nil
	case "watch":
		if len(rest) != 1 {
			return fmt.Errorf("watch needs <job-id>")
		}
		state, err := watchJob(c, rest[0], 0)
		if err != nil {
			return err
		}
		fmt.Printf("[%s]\n", state)
		return nil
	case "cancel":
		if len(rest) != 1 {
			return fmt.Errorf("cancel needs <job-id>")
		}
		if err := c.Cancel(rest[0]); err != nil {
			return err
		}
		fmt.Println("cancelled", rest[0])
		return nil
	case "jobs":
		state := ""
		if len(rest) > 0 {
			state = rest[0]
		}
		limit := 0
		if len(rest) > 1 {
			n, err := strconv.Atoi(rest[1])
			if err != nil || n <= 0 {
				return fmt.Errorf("bad limit %q", rest[1])
			}
			limit = n
		}
		// Page through the listing so the output is complete even when the
		// history is longer than one server page.
		printed := 0
		cursor := ""
		for {
			page, err := c.JobsPage(state, limit, cursor)
			if err != nil {
				return err
			}
			for _, j := range page.Jobs {
				fmt.Printf("%s  %-10s %-6d %s\n", j.ID, j.State, j.Ranks, j.SourcePath)
				printed++
				if limit > 0 && printed >= limit {
					return nil
				}
			}
			if page.NextCursor == "" {
				return nil
			}
			cursor = page.NextCursor
		}
	case "trace":
		if len(rest) != 1 {
			return fmt.Errorf("trace needs <job-id>")
		}
		tr, err := c.Trace(rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("%s [%s]\n", tr.ID, tr.State)
		printSpan(tr.Trace, 0)
		return nil
	case "events":
		events, err := c.Events(0)
		if err != nil {
			return err
		}
		for _, e := range events {
			line := fmt.Sprintf("#%-4d %-16s %s", e.Seq, e.Kind, e.JobID)
			if len(e.Nodes) > 0 {
				line += fmt.Sprintf(" on %d node(s)", len(e.Nodes))
			}
			if e.Detail != "" {
				line += ": " + e.Detail
			}
			fmt.Println(line)
		}
		return nil
	case "format":
		if len(rest) != 1 {
			return fmt.Errorf("format needs <remote>")
		}
		if err := c.FormatFile(rest[0]); err != nil {
			return err
		}
		fmt.Println("formatted", rest[0])
		return nil
	case "stats":
		st, err := c.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("nodes: %d total, %d free; utilization %.1f%%; dispatched %d\n",
			st.TotalNodes, st.FreeNodes, st.Utilization*100, st.Dispatched)
		for state, n := range st.Jobs {
			fmt.Printf("  jobs %-10s %d\n", state, n)
		}
		return nil
	case "usage":
		var u ccportal.Usage
		var err error
		if len(rest) > 0 {
			u, err = c.AdminUsage(rest[0])
		} else {
			u, err = c.Usage()
		}
		if err != nil {
			return err
		}
		printUsage(u)
		return nil
	case "limits":
		if len(rest) < 1 {
			return fmt.Errorf("limits needs <user> [key=value...]")
		}
		spec, err := parseLimitSpec(rest[1:])
		if err != nil {
			return err
		}
		res, err := c.SetLimits(rest[0], spec)
		if err != nil {
			return err
		}
		fmt.Printf("limits for %s (0 = default, -1 = unlimited):\n", res.User)
		fmt.Printf("  %-12s %-12s %s\n", "key", "override", "effective")
		fmt.Printf("  %-12s %-12d %d\n", "quota", res.Limits.QuotaBytes, res.Effective.QuotaBytes)
		fmt.Printf("  %-12s %-12d %d\n", "steps", res.Limits.StepBudget, res.Effective.StepBudget)
		fmt.Printf("  %-12s %-12d %d\n", "jobs", res.Limits.MaxJobs, res.Effective.MaxJobs)
		fmt.Printf("  %-12s %-12g %g\n", "rate", res.Limits.RatePerSec, res.Effective.RatePerSec)
		fmt.Printf("  %-12s %-12d %d\n", "burst", res.Limits.Burst, res.Effective.Burst)
		fmt.Printf("  %-12s %-12d %d\n", "weight", res.Limits.Weight, res.Effective.Weight)
		return nil
	case "backup":
		if len(rest) != 1 {
			return fmt.Errorf("backup needs <file>")
		}
		snap, err := c.Backup()
		if err != nil {
			return err
		}
		if err := os.WriteFile(rest[0], snap, 0o600); err != nil {
			return err
		}
		fmt.Printf("backup written to %s (%d bytes)\n", rest[0], len(snap))
		return nil
	case "restore":
		if len(rest) != 1 {
			return fmt.Errorf("restore needs <file>")
		}
		snap, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		if err := c.RestoreBackup(snap); err != nil {
			return err
		}
		fmt.Printf("restored %s (%d bytes)\n", rest[0], len(snap))
		return nil
	case "persistence":
		st, err := c.Persistence()
		if err != nil {
			return err
		}
		fmt.Printf("mode: %s\n", st.Mode)
		if st.Mode == "durable" {
			fmt.Printf("dir: %s (fsync %s)\n", st.Dir, st.Fsync)
			fmt.Printf("wal: %d records, %d bytes, %d batches, %d fsyncs\n",
				st.WALRecords, st.WALBytes, st.Batches, st.Fsyncs)
			last := "never"
			if !st.LastSnapshot.IsZero() {
				last = st.LastSnapshot.Format(time.RFC3339)
			}
			fmt.Printf("snapshots: %d (last %s, %d bytes)\n", st.Snapshots, last, st.SnapshotBytes)
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// watchJob follows a job's event stream, printing output as it arrives,
// until the job finishes; it returns the terminal state. timeout 0 means
// wait indefinitely. Dropped ranges (output that aged out of the server's
// retention before we read it) are flagged on stderr so the printed text is
// never silently incomplete.
func watchJob(c *ccportal.Client, id string, timeout time.Duration) (string, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	w, err := c.Watch(ctx, id)
	if err != nil {
		return "", err
	}
	defer w.Close()
	for {
		ev, err := w.Next()
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return "", fmt.Errorf("event stream for %s ended without a done event", id)
			}
			return "", err
		}
		if ev.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "portalctl: [%d bytes of output dropped]\n", ev.Dropped)
		}
		if ev.Done {
			return ev.State, nil
		}
		fmt.Print(ev.Data)
	}
}

// printUsage renders one user's resource standing. Unlimited bounds arrive
// as -1 from the server and are printed as such.
func printUsage(u ccportal.Usage) {
	fmt.Printf("usage for %s:\n", u.User)
	fmt.Printf("  disk:   %d / %d bytes\n", u.Disk.UsedBytes, u.Disk.QuotaBytes)
	fmt.Printf("  steps:  %d / %d (remaining %d)\n", u.Steps.Used, u.Steps.Budget, u.Steps.Remaining)
	fmt.Printf("  jobs:   %d active / %d max\n", u.Jobs.Active, u.Jobs.Max)
	fmt.Printf("  rate:   %g req/s, burst %d\n", u.Rate.PerSec, u.Rate.Burst)
	fmt.Printf("  weight: %d\n", u.Weight)
}

// parseLimitSpec turns key=value arguments into a partial limits update.
// Keys not mentioned stay untouched on the server; value 0 resets the
// override to the deployment default and a negative value means unlimited.
func parseLimitSpec(kvs []string) (ccportal.LimitSpec, error) {
	var spec ccportal.LimitSpec
	for _, kv := range kvs {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("limit %q is not key=value", kv)
		}
		switch key {
		case "quota", "steps", "jobs", "burst", "weight":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("bad %s value %q", key, val)
			}
			switch key {
			case "quota":
				spec.QuotaBytes = &n
			case "steps":
				spec.StepBudget = &n
			case "jobs":
				i := int(n)
				spec.MaxJobs = &i
			case "burst":
				i := int(n)
				spec.Burst = &i
			case "weight":
				spec.Weight = &n
			}
		case "rate":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return spec, fmt.Errorf("bad rate value %q", val)
			}
			spec.RatePerSec = &f
		default:
			return spec, fmt.Errorf("unknown limit key %q (want quota, steps, jobs, rate, burst or weight)", key)
		}
	}
	return spec, nil
}

// printSpan renders one span and its children as an indented tree.
func printSpan(sp ccportal.TraceSpan, depth int) {
	dur := "open"
	if sp.DurationUS >= 0 {
		dur = (time.Duration(sp.DurationUS) * time.Microsecond).String()
	}
	line := fmt.Sprintf("%*s%-12s %s", depth*2, "", sp.Name, dur)
	keys := make([]string, 0, len(sp.Attrs))
	for k := range sp.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		line += fmt.Sprintf(" %s=%s", k, sp.Attrs[k])
	}
	fmt.Println(line)
	for _, child := range sp.Children {
		printSpan(child, depth+1)
	}
}
