// Prsim runs the paper's Seattle deployment at the console, or a
// scenario.
//
// The console, the default, builds the gateway, Ethernet and radio
// channel, runs a scripted workload, and prints a frame-level monitor
// trace — the closest thing to sitting at the MicroVAX console in 1988:
//
//	prsim                          # pings + a telnet session
//	prsim -bps 9600 -pcs 4 -acl    # faster channel, more PCs, §4.3 ACL
//	prsim -load 60                 # add 60% background channel load
//	prsim -mac dama -pcs 8         # polled access instead of CSMA
//
// A scenario (SCENARIOS.md) is a JSON file, or a directory of them,
// given to -scenario, or the regional world the scale flags describe:
// -stations N, with -channels, -bps, -baud, -mac, -transport and -dur,
// is N stations each probing the Internet host once a minute after a
// 30 s warm-up. A scenario is swept across seeds by scenario.Evaluate
// (a per-seed table, the across-seed delivery and RTT percentiles, the
// gate verdicts) or run once at -seed with the observers attached.
// Files are swept unless an observer flag is set; the flag-built
// scenario is swept only when -seeds is set without one.
//
//	prsim -scenario examples/scenarios         # gate every scenario
//	prsim -scenario examples/scenarios/diurnal.json -seeds 16
//	prsim -stations 100 -mac dama              # E16-style world, with a fate
//	                                           # ledger for every lost ping
//	prsim -stations 200 -channels 8 -seeds 8   # delivery and RTT across seeds
//
// The observability layer (internal/obs) hangs off flags that work in
// both modes:
//
//	prsim -pcap gw.pcap -filter "icmp"   # capture the gateway's KISS seam
//	prsim -trace run.json                # scheduler flight recorder -> Chrome trace
//	prsim -metrics run.csv -netstat      # 1 Hz metric samples + final netstat -s
//	prsim -stations 200 -spans           # every packet's journey, stage by stage
//
// A file the observers cannot write is reported on stderr, and prsim
// exits 1; so does a sweep that misses a scenario's gates. A bad
// invocation or scenario exits 2.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/experiments"
	"packetradio/internal/ip"
	"packetradio/internal/obs"
	"packetradio/internal/scenario"
	"packetradio/internal/tcp"
	"packetradio/internal/telnet"
	"packetradio/internal/world"
)

// obsFlags are the observability attachments shared by the Seattle
// console and a scenario's single run.
type obsFlags struct {
	netstat bool
	pcap    string
	filter  string
	trace   string
	metrics string
	spans   bool

	// create opens an output file: os.Create, or a fake in tests.
	create func(name string) (io.WriteCloser, error)
}

// open creates an output file behind a write buffer. The writers make
// many small writes (a CSV field, a pcap record header), and each
// would otherwise be a system call.
func (o *obsFlags) open(name string) (io.WriteCloser, error) {
	f, err := o.create(name)
	if err != nil {
		return nil, err
	}
	return bufferedFile{bufio.NewWriter(f), f}, nil
}

// bufferedFile is an output file behind a write buffer. Close flushes
// the buffer, then closes the file, and returns the first error.
type bufferedFile struct {
	*bufio.Writer
	f io.Closer
}

func (b bufferedFile) Close() error {
	err := b.Flush()
	if cerr := b.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFile writes one output file whole and closes it, returning the
// first error, named with the file.
func (o *obsFlags) writeFile(name string, write func(io.Writer) error) error {
	f, err := o.open(name)
	if err != nil {
		return err
	}
	return closeFile(name, f, write(f))
}

// closeFile closes f and returns err, else the close error, naming the
// file unless the error already does.
func closeFile(name string, f io.Closer, err error) error {
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	var pe *fs.PathError
	if err != nil && !errors.As(err, &pe) {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return err
}

// attach wires the requested observers into a built world (gwHost
// names the host whose pr0 KISS seam the pcap tap watches) and returns
// a finish func that flushes files and prints the end-of-run reports.
// finish runs every report and returns the first file error.
func (o *obsFlags) attach(w *world.World, gwHost string) (func() error, error) {
	var finishers []func() error
	var tr *obs.Tracer
	var journeys func() []obs.Trace // every journey, in TraceID order
	if o.spans {
		tr = w.AttachTracer()
		journeys = tr.Collect()
	}
	var flt *obs.Filter
	if o.filter != "" {
		f, err := obs.ParseFilter(o.filter)
		if err != nil {
			return nil, err
		}
		flt = f
	}
	if o.pcap != "" {
		f, err := o.open(o.pcap)
		if err != nil {
			return nil, err
		}
		pw, err := w.CapturePort(gwHost, "pr0", f, flt)
		if err != nil {
			f.Close()
			return nil, err
		}
		finishers = append(finishers, func() error {
			if err := closeFile(o.pcap, f, pw.Err()); err != nil {
				return err
			}
			fmt.Printf("# pcap: %d frames -> %s\n", pw.Count(), o.pcap)
			return nil
		})
	}
	if o.trace != "" {
		fr := w.EnableFlightRecorder(0)
		if tr != nil {
			fr.SetJourneySource(journeys) // spans join the trace as flow events
		}
		finishers = append(finishers, func() error {
			if err := o.writeFile(o.trace, fr.WriteTrace); err != nil {
				return err
			}
			fmt.Printf("# trace: %d events (%d overwritten) -> %s\n", fr.Len(), fr.Dropped(), o.trace)
			return nil
		})
	}
	if o.metrics != "" {
		reg := w.Registry()
		reg.StartSampling(w.Sched, time.Second)
		finishers = append(finishers, func() error {
			if err := o.writeFile(o.metrics, reg.WriteCSV); err != nil {
				return err
			}
			fmt.Printf("# metrics: %d series -> %s\n", reg.Len(), o.metrics)
			return nil
		})
	}
	if o.spans {
		finishers = append(finishers, func() error {
			bd := tr.Breakdown()
			fmt.Printf("# packet journeys: %d traced, %d incomplete\n", bd.Traces, bd.Incomplete)
			bd.WriteText(os.Stdout)
			fmt.Println("# span stream:")
			for _, j := range journeys() {
				for _, s := range j.Spans() {
					arg := ""
					if s.Arg != "" {
						arg = " [" + s.Arg + "]"
					}
					fmt.Printf("%12.6f %12.6f %-10s %-8s%s | %s\n",
						s.Start.Seconds(), s.End.Seconds(), s.Stage, s.Who, arg, s.ID)
				}
			}
			return nil
		})
	}
	if o.netstat {
		finishers = append(finishers, func() error {
			fmt.Println("# netstat -s:")
			w.Netstat(os.Stdout, "")
			return nil
		})
	}
	return func() error {
		var first error
		for _, f := range finishers {
			if err := f(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// fail reports err and returns the exit status for a bad invocation.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 2
}

// finished reports a file the observers could not write, and returns
// the run's exit status.
func finished(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "prsim:", err)
		return 1
	}
	return 0
}

// The run's flags, apart from the observers' (obsFlags). They live at
// package level so a test can parse a command line into them.
var (
	bps           = flag.Int("bps", 1200, "radio channel bit rate")
	baud          = flag.Int("baud", 9600, "host-TNC serial speed")
	pcs           = flag.Int("pcs", 2, "radio PCs")
	acl           = flag.Bool("acl", false, "enable the §4.3 access-control table")
	load          = flag.Int("load", 0, "background channel load percent")
	dur           = flag.Duration("dur", 10*time.Minute, "simulated duration")
	seed          = flag.Int64("seed", 1, "simulation seed")
	quiet         = flag.Bool("q", false, "suppress the frame monitor")
	macFlag       = flag.String("mac", "csma", "channel access: csma (p-persistent) or dama (polled)")
	scenarioFlag  = flag.String("scenario", "", "run this scenario file (JSON, see SCENARIOS.md), or every one in this directory: swept across its seeds against its gates, or once with an observer flag")
	stations      = flag.Int("stations", 0, "run the scenario of N regional stations that -channels, -bps, -baud, -mac, -transport and -dur describe, each probing the Internet host once a minute (0 = the Seattle console)")
	transportFlag = flag.String("transport", "icmp", "-stations probe transport: icmp, tcp or rdm")
	channels      = flag.Int("channels", 1, "-stations radio channels, stations spread round-robin, one gateway each")
	seeds         = flag.Int("seeds", 0, "sweep the scenario across seeds 1..N, up to GOMAXPROCS at once, and report delivery/RTT percentiles (with -scenario, default: the file's gates.seeds)")
	cpuprofile    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile    = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
)

func main() { os.Exit(run()) }

// run is prsim with its deferred profile writers done before the
// process exits; it returns the exit status.
func run() int {
	of := obsFlags{create: func(name string) (io.WriteCloser, error) { return os.Create(name) }}
	flag.BoolVar(&of.netstat, "netstat", false, "print every metric in the registry at the end of the run")
	flag.StringVar(&of.pcap, "pcap", "", "capture the gateway's KISS seam to this pcap file")
	flag.StringVar(&of.filter, "filter", "", "pcap capture filter, e.g. \"icmp or host 44.24.0.10\"")
	flag.StringVar(&of.trace, "trace", "", "record scheduler+MAC events to this Chrome trace JSON file")
	flag.StringVar(&of.metrics, "metrics", "", "sample every metric at 1 Hz of virtual time to this CSV file")
	flag.BoolVar(&of.spans, "spans", false, "trace every packet's journey and print the span stream plus the per-stage latency breakdown (joins -trace output as flow events)")
	flag.Parse()

	mac, err := world.ParseMACMode(*macFlag)
	if err != nil {
		return fail(err)
	}

	if _, err := world.ParseTransportMode(*transportFlag); err != nil {
		return fail(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("# cpuprofile -> %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
			fmt.Printf("# memprofile -> %s\n", *memprofile)
		}()
	}

	observed := of.netstat || of.pcap != "" || of.trace != "" || of.metrics != "" || of.spans
	var sc *scenario.Scenario
	switch {
	case *scenarioFlag != "" && !observed:
		return sweepFiles(*scenarioFlag, *seeds)
	case *scenarioFlag != "":
		sc, err = scenario.Load(*scenarioFlag)
	case *stations > 0:
		sc, err = flagScenario()
	case *seeds > 0:
		err = errors.New("prsim: -seeds sweeps a scenario: give -scenario or -stations")
	}
	switch {
	case err != nil:
		return fail(err)
	case sc != nil && *seeds > 0 && !observed:
		return sweep([]*scenario.Scenario{sc}, *seeds)
	case sc != nil:
		return runOnce(sc, *seed, &of)
	}

	s := world.NewSeattle(world.SeattleConfig{
		Seed: *seed, NumPCs: *pcs, BitRate: *bps, Baud: *baud, WithACL: *acl, MAC: mac,
	})
	finish, err := of.attach(s.W, "uw-gw")
	if err != nil {
		return fail(err)
	}

	if !*quiet {
		s.Gateway.Radio("pr0").Driver.Monitor = func(dir string, f *ax25.Frame) {
			fmt.Printf("%10.3f gw %-2s %v\n", s.W.Sched.Now().Seconds(), dir, f)
		}
	}
	experiments.Chatter(s, *load)

	// Workload 1: the paper's first test, ICMP-level.
	fmt.Printf("# %d bps channel, %d baud serial, %d PCs, acl=%v, load=%d%%, mac=%v\n",
		*bps, *baud, *pcs, *acl, *load, mac)
	fmt.Println("# pc1 pings the Internet host through the gateway")
	for i := 0; i < 3; i++ {
		seq := i
		s.PCs[0].Stack.Ping(world.InternetIP, 64, func(_ uint16, rtt time.Duration, from ip.Addr) {
			fmt.Printf("%10.3f ping %d: reply from %v in %.2fs\n",
				s.W.Sched.Now().Seconds(), seq, from, rtt.Seconds())
		})
		s.W.Run(time.Minute)
	}

	// Workload 2: a telnet session radio -> Internet.
	fmt.Println("# pc1 telnets to the Internet host")
	inetSL := s.Internet.Sockets()
	inetSL.StreamDefaults = tcp.Config{MSS: 216}
	telnet.Serve(inetSL, &telnet.Server{Hostname: "june"})
	cl := telnet.DialClient(s.PCs[0].Sockets(), world.InternetIP)
	s.W.Run(2 * time.Minute)
	cl.SendLine("uname")
	s.W.Run(2 * time.Minute)
	cl.SendLine("logout")
	s.W.Run(*dur)

	fmt.Println("# telnet transcript:")
	for _, line := range strings.Split(cl.Output.String(), "\n") {
		if strings.TrimSpace(line) != "" {
			fmt.Println("  |", strings.TrimRight(line, "\r"))
		}
	}

	gw := s.Gateway
	fmt.Printf("# gateway stats: forwarded=%d fragsOut=%d ttlDrops=%d filterDrops=%d\n",
		gw.Stack.Stats.Forwarded, gw.Stack.Stats.FragsOut,
		gw.Stack.Stats.TTLDrops, gw.Stack.Stats.FilterDrops)
	port := gw.Radio("pr0")
	fmt.Printf("# gateway radio: ipIn=%d notForUs=%d serialBytes=%d tncDrops=%d\n",
		port.Driver.DStats.IPIn, port.Driver.DStats.NotForUs,
		port.Driver.DStats.BytesFed, port.TNC.Stats.HostDrops)
	fmt.Printf("# channel: offered load=%.1f%% collisions=%d\n",
		s.Channel.Utilization()*100, s.Channel.Stats.CollisionPairs)
	if mac == world.MACDAMA {
		fmt.Printf("# dama: polls=%d timeouts=%d controlAirtime=%v (%.1f%% of airtime)\n",
			port.RF.Stats.PollsSent, port.RF.Stats.PollTimeouts, s.Channel.Stats.ControlAirtime,
			100*float64(s.Channel.Stats.ControlAirtime)/float64(s.Channel.Stats.Airtime))
	}
	if s.GatewayGW.ACL != nil {
		fmt.Printf("# acl: %+v\n", s.GatewayGW.ACL.Stats)
	}
	return finished(finish())
}

// flagScenario is the scenario the scale flags describe: -stations
// stations over -channels channels of the large base, each probing the
// Internet host once a minute, a 30 s warm-up, then -dur timed. It is
// normalized and validated as a file would be, so it takes the
// schema's bounds.
func flagScenario() (*scenario.Scenario, error) {
	sc := &scenario.Scenario{
		Name: "scale",
		Topology: scenario.Topology{
			Base: "large", Stations: *stations, Channels: *channels, BitRate: *bps, Baud: *baud, MAC: *macFlag,
		},
		Traffic: scenario.Traffic{Transport: *transportFlag, ProbeInterval: scenario.Duration(time.Minute)},
		Run:     scenario.RunSpec{Warmup: scenario.Duration(30 * time.Second), Duration: scenario.Duration(*dur)},
	}
	sc.Normalize()
	return sc, sc.Validate()
}

// sweepFiles loads the scenario at path, or every one in that
// directory, and sweeps them.
func sweepFiles(path string, seeds int) int {
	files, err := scenarioFiles(path)
	if err != nil {
		return fail(err)
	}
	scs := make([]*scenario.Scenario, len(files))
	for i, f := range files {
		if scs[i], err = scenario.Load(f); err != nil {
			return fail(err)
		}
	}
	return sweep(scs, seeds)
}

// sweep evaluates each scenario across seeds (0 = its gates.seeds) and
// prints the per-seed results and the gate verdicts, with a blank line
// between reports; it exits 1 if a gate fails. The report is
// deterministic, so CI diffs two runs' output byte for byte.
func sweep(scs []*scenario.Scenario, seeds int) int {
	failed := 0
	for i, sc := range scs {
		if i > 0 {
			fmt.Println()
		}
		rep, err := scenario.Evaluate(sc, seeds)
		if err != nil {
			return fail(err)
		}
		rep.WriteText(os.Stdout)
		if !rep.Pass() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "prsim: %d of %d scenarios failed their gates\n", failed, len(scs))
		return 1
	}
	return 0
}

// scenarioFiles lists the scenarios at path: every .json file of a
// directory, in name order, or else path itself, which Load then reads
// or reports.
func scenarioFiles(path string) ([]string, error) {
	entries, err := os.ReadDir(path)
	if err != nil {
		return []string{path}, nil
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			files = append(files, filepath.Join(path, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("prsim: no .json scenarios in %s", path)
	}
	return files, nil
}

// runOnce runs one seed of a scenario with the observers attached, and
// a ping ledger when the probes are ICMP, all before the first event.
// It prints the probe totals, the channels' mean offered load and
// collisions, and then the ping fates, or the Internet host's
// transport counters for TCP and RDM probes. Gates are not checked.
func runOnce(sc *scenario.Scenario, seed int64, of *obsFlags) int {
	r, err := scenario.Compile(sc, seed)
	if err != nil {
		return fail(err)
	}
	var ledger *obs.PingLedger
	if sc.Traffic.Transport == "icmp" {
		ledger = r.W.AttachPingLedger()
	}
	gwHost := "gw1"
	if r.Seattle != nil {
		gwHost = "uw-gw"
	}
	finish, err := of.attach(r.W, gwHost)
	if err != nil {
		return fail(err)
	}
	fmt.Println(sc.Summary())
	fmt.Printf("# single run (seed %d); gates not checked\n", seed)
	st := r.Run()
	fmt.Printf("# probes: sent=%d replies=%d delivery=%.3f rtt_p50=%s rtt_p95=%s control_share=%.3f\n",
		st.Sent, st.Replies, st.Delivery, st.RTTPercentile(50), st.RTTPercentile(95), st.ControlShare)
	util, coll := 0.0, uint64(0)
	for _, ch := range r.Channels {
		util += ch.Utilization()
		coll += ch.Stats.CollisionPairs
	}
	fmt.Printf("# channels: mean offered load=%.1f%% collisions=%d\n",
		util/float64(len(r.Channels))*100, coll)
	if ledger != nil {
		// A scenario with span gates resets its tracer, and so the
		// ledger that shares its recorder, at the end of the warm-up.
		since := ""
		if r.Tracer != nil {
			since = " since the warm-up"
		}
		fmt.Printf("# ping fates%s (first thing that went wrong, most common first):\n", since)
		ledger.WriteFates(os.Stdout)
	} else if sl := r.Internet.Sockets(); sl.TCPActive() != nil {
		s := sl.TCPActive().Stats
		fmt.Printf("# inet tcp: segsIn=%d segsOut=%d accepts=%d\n", s.SegsIn, s.SegsOut, s.Accepts)
	} else if sl.RDMActive() != nil {
		s := sl.RDMActive().Stats
		fmt.Printf("# inet rdm: delivered=%d sent=%d resent=%d acksOut=%d naksOut=%d failed=%d\n",
			s.Delivered, s.Sent, s.Resent, s.AcksOut, s.NaksOut, s.Failed)
	}
	return finished(finish())
}
