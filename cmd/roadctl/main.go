// Command roadctl is the operator CLI for any roadrunnerd that is not a
// joined worker — with or without -cluster, every daemon is a coordinator
// and serves the same API: submit campaign manifests, inspect campaign and
// fleet status, follow the progress stream, and fetch merged
// canonical results. It speaks the /v1/cluster/ prefix.
//
// Usage:
//
//	roadctl [-addr http://127.0.0.1:8383] submit -f manifest.json
//	roadctl [-addr URL] status <campaign-id>
//	roadctl [-addr URL] nodes
//	roadctl [-addr URL] watch <campaign-id>
//	roadctl [-addr URL] result [-o file] <campaign-id>
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "roadctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("roadctl", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8383", "roadrunnerd base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: roadctl [-addr URL] <submit|status|nodes|watch|result> ...")
	}
	c := &client{base: strings.TrimRight(*addr, "/"), out: out}
	switch cmd, cmdArgs := rest[0], rest[1:]; cmd {
	case "submit":
		return c.submit(cmdArgs)
	case "status":
		return c.status(cmdArgs)
	case "nodes":
		return c.nodes()
	case "watch":
		return c.watch(cmdArgs)
	case "result":
		return c.result(cmdArgs)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

type client struct {
	base string
	out  io.Writer
}

func (c *client) get(path string) (*http.Response, error) {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer func() { _ = resp.Body.Close() }()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// pipe copies a (JSON or text) response body to the output verbatim —
// the API already pretty-prints.
func (c *client) pipe(resp *http.Response) error {
	defer func() { _ = resp.Body.Close() }()
	_, err := io.Copy(c.out, resp.Body)
	return err
}

// submitBackoff caps how long one 429 retry sleeps and how long the
// whole retry loop persists before giving up.
const (
	submitRetryCap    = 10 * time.Second
	submitRetryBudget = 5 * time.Minute
)

func (c *client) submit(args []string) error {
	fs := flag.NewFlagSet("roadctl submit", flag.ContinueOnError)
	file := fs.String("f", "", "manifest JSON file (- for stdin)")
	wait := fs.Bool("wait", true, "on 429 (backlog full), retry with backoff until admitted")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("submit requires -f manifest.json")
	}
	var manifest []byte
	var err error
	if *file == "-" {
		manifest, err = io.ReadAll(os.Stdin)
	} else {
		manifest, err = os.ReadFile(*file)
	}
	if err != nil {
		return err
	}
	// A 429 is admission backpressure, not failure: the coordinator's
	// backlog is at its cap and the manifest should be resubmitted once
	// workers drain it. Honor the Retry-After hint, doubling (capped)
	// while the backlog stays full.
	delay := time.Second
	deadline := time.Now().Add(submitRetryBudget) //roadlint:allow wallclock CLI retry budget at the service edge
	for {
		resp, err := http.Post(c.base+"/v1/cluster/campaigns", "application/json", bytes.NewReader(manifest))
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests && *wait {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			_ = resp.Body.Close()
			if hint, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && hint > 0 {
				delay = time.Duration(hint) * time.Second
			}
			if delay > submitRetryCap {
				delay = submitRetryCap
			}
			if time.Now().After(deadline) { //roadlint:allow wallclock CLI retry budget at the service edge
				return fmt.Errorf("submit: backlog still full after %s: %s", submitRetryBudget, bytes.TrimSpace(msg))
			}
			fmt.Fprintf(c.out, "roadctl: backlog full, retrying in %s\n", delay)
			time.Sleep(delay) //roadlint:allow wallclock CLI submit backoff pacing at the service edge
			delay *= 2
			continue
		}
		if resp.StatusCode/100 != 2 {
			defer func() { _ = resp.Body.Close() }()
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		return c.pipe(resp)
	}
}

func (c *client) status(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: roadctl status <campaign-id>")
	}
	resp, err := c.get("/v1/cluster/campaigns/" + args[0])
	if err != nil {
		return err
	}
	return c.pipe(resp)
}

func (c *client) nodes() error {
	resp, err := c.get("/v1/cluster/nodes")
	if err != nil {
		return err
	}
	return c.pipe(resp)
}

// watch follows the campaign's SSE stream, printing one event
// per line until the stream closes (the campaign's terminal event).
func (c *client) watch(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: roadctl watch <campaign-id>")
	}
	resp, err := c.get("/v1/cluster/campaigns/" + args[0] + "/events")
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			fmt.Fprintln(c.out, data)
		}
	}
	return sc.Err()
}

func (c *client) result(args []string) error {
	fs := flag.NewFlagSet("roadctl result", flag.ContinueOnError)
	outFile := fs.String("o", "", "write merged result to file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: roadctl result [-o file] <campaign-id>")
	}
	resp, err := c.get("/v1/cluster/campaigns/" + fs.Arg(0) + "/result")
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		if _, err := io.Copy(f, resp.Body); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	_, err = io.Copy(c.out, resp.Body)
	return err
}
