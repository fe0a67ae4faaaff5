package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/report"
)

// topCommand renders per-cell resource attribution — where a
// campaign's wall time, allocations and simulated energy went. It
// reads either an archived run directory (timeline.jsonl +
// results.jsonl) or a live pcs serve campaign over HTTP, following the
// event stream and refreshing the table until the campaign finishes.
func topCommand() *cli.Command {
	var (
		addr     string
		sortKey  string
		topN     int
		interval time.Duration
		once     bool
	)
	return &cli.Command{
		Name:    "top",
		Summary: "show per-cell resource attribution for a run directory or live campaign",
		Usage:   "[-sort key] [-n N] RUNDIR | -addr host:port [-interval 2s] [-once] [campaign-id]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.StringVar(&addr, "addr", "", "pcs serve address; follow a live campaign instead of reading a run directory")
			fs.StringVar(&sortKey, "sort", "wall", "sort key: wall, allocs, energy")
			fs.IntVar(&topN, "n", 15, "rows in the top-cells table (0 = all)")
			fs.DurationVar(&interval, "interval", 2*time.Second, "with -addr: table refresh period")
			fs.BoolVar(&once, "once", false, "with -addr: render the current snapshot once and exit")
		},
		Run: func(fs *flag.FlagSet) error {
			if addr == "" {
				if fs.NArg() != 1 {
					return fmt.Errorf("need exactly one run directory (or -addr for live mode)")
				}
				return renderTopCells(fs.Arg(0), sortKey, topN)
			}
			if fs.NArg() > 1 {
				return fmt.Errorf("at most one campaign id with -addr (got %d args)", fs.NArg())
			}
			return liveTop(addr, fs.Arg(0), sortKey, topN, interval, once)
		},
	}
}

// renderTopCells renders a run directory's per-cell resource
// attribution: the top-N cells table plus per-kind totals, joined with
// per-cell energy from results.jsonl where available.
func renderTopCells(dir, sortKey string, n int) error {
	events, err := obs.ReadJobTimeline(filepath.Join(dir, "timeline.jsonl"))
	if err != nil {
		return err
	}
	cells := report.CellsFromEvents(events)
	if len(cells) == 0 {
		return fmt.Errorf("%s: timeline has no terminal job events", dir)
	}
	if err := report.AttachEnergyFile(cells, filepath.Join(dir, "results.jsonl")); err != nil {
		return err
	}
	if err := report.SortCells(cells, sortKey); err != nil {
		return err
	}
	if err := report.TopCellsTable(cells, n).Render(os.Stdout); err != nil {
		return err
	}
	return report.KindSummaryTable(cells).Render(os.Stdout)
}

// liveTop follows a campaign's event stream on a pcs serve instance and
// periodically re-renders the attribution tables. With an empty id it
// picks the most recently submitted campaign.
func liveTop(addr, id, sortKey string, topN int, interval time.Duration, once bool) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if id == "" {
		var err error
		if id, err = latestCampaign(base); err != nil {
			return err
		}
	}

	resp, err := http.Get(base + "/campaigns/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET /campaigns/%s/events: %s: %s", id, resp.Status, strings.TrimSpace(string(body)))
	}

	// One goroutine decodes the NDJSON stream; the render loop below
	// consumes it on its own clock.
	evCh := make(chan obs.JobEvent, 64)
	errCh := make(chan error, 1)
	go func() {
		defer close(evCh)
		dec := json.NewDecoder(resp.Body)
		for {
			var ev obs.JobEvent
			if err := dec.Decode(&ev); err != nil {
				if err != io.EOF {
					errCh <- fmt.Errorf("event stream: %w", err)
				}
				return
			}
			evCh <- ev
		}
	}()

	render := func(events []obs.JobEvent, clear bool) error {
		cells := report.CellsFromEvents(events)
		if err := attachLiveEnergy(base, id, cells); err != nil {
			fmt.Fprintf(os.Stderr, "pcs top: energy join: %v\n", err)
		}
		if err := report.SortCells(cells, sortKey); err != nil {
			return err
		}
		if clear {
			fmt.Print("\x1b[H\x1b[2J")
		}
		fmt.Printf("campaign %s on %s — %d terminal cells, %s\n\n",
			id, addr, len(cells), time.Now().Format(time.TimeOnly))
		if err := report.TopCellsTable(cells, topN).Render(os.Stdout); err != nil {
			return err
		}
		return report.KindSummaryTable(cells).Render(os.Stdout)
	}

	var events []obs.JobEvent
	if once {
		// Snapshot: the stream's first batch carries everything buffered
		// so far; a short quiet gap means we have caught up.
		quiet := time.NewTimer(300 * time.Millisecond)
		defer quiet.Stop()
	snapshot:
		for {
			select {
			case ev, ok := <-evCh:
				if !ok {
					break snapshot
				}
				events = append(events, ev)
				quiet.Reset(300 * time.Millisecond)
			case <-quiet.C:
				break snapshot
			}
		}
		return render(events, false)
	}

	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case ev, ok := <-evCh:
			if !ok {
				select {
				case err := <-errCh:
					return err
				default:
				}
				return render(events, false)
			}
			events = append(events, ev)
		case <-tick.C:
			if err := render(events, true); err != nil {
				return err
			}
		}
	}
}

// latestCampaign asks the server for its campaign list and returns the
// most recently submitted id.
func latestCampaign(base string) (string, error) {
	resp, err := http.Get(base + "/campaigns")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /campaigns: %s", resp.Status)
	}
	var doc struct {
		Campaigns []struct {
			ID string `json:"id"`
		} `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", fmt.Errorf("GET /campaigns: %w", err)
	}
	if len(doc.Campaigns) == 0 {
		return "", fmt.Errorf("server has no campaigns")
	}
	return doc.Campaigns[len(doc.Campaigns)-1].ID, nil
}

// attachLiveEnergy joins per-cell energy from the campaign's completed
// result records; the /results stream uses the same record shape as
// results.jsonl.
func attachLiveEnergy(base, id string, cells []report.CellUsage) error {
	resp, err := http.Get(base + "/campaigns/" + id + "/results")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /campaigns/%s/results: %s", id, resp.Status)
	}
	return report.AttachEnergy(cells, resp.Body)
}
