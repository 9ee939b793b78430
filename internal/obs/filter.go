package obs

import (
	"fmt"
	"strconv"
	"strings"

	"packetradio/internal/ip"
)

// Filter is the BPF-lite capture filter: a disjunction of
// conjunctions over a handful of IP-level predicates, enough to say
// "this host's traffic" or "icmp or port 23" at a tap point without
// dragging in a real BPF machine.
//
// Grammar (case-insensitive keywords, no parentheses):
//
//	expr := conj { "or" conj }
//	conj := pred { ["and"] pred }
//	pred := ["not"] ( "host" ADDR | "src" ADDR | "dst" ADDR
//	                | "proto" N | "icmp" | "tcp" | "udp" | "rdm"
//	                | "port" N )
//
// host matches either address; port matches either TCP/UDP/RDM port
// (and only on unfragmented first fragments, where the transport
// header is present). An empty expression matches everything.
type Filter struct {
	alts [][]pred // OR of ANDs
	src  string
}

type pred struct {
	neg  bool
	kind byte // 'h' host, 's' src, 'd' dst, 'p' proto, 'P' port
	addr ip.Addr
	num  uint16
}

// token is one whitespace-delimited word with its source position
// (1-based line and column), so parse errors point at the offending
// word — filters now arrive from scenario files, where "somewhere in
// the string" is no longer good enough.
type token struct {
	w         string // lowercased
	raw       string
	line, col int
}

func tokenize(s string) []token {
	var out []token
	line, col := 1, 1
	start, startLine, startCol := -1, 0, 0
	flush := func(end int) {
		if start >= 0 {
			raw := s[start:end]
			out = append(out, token{w: strings.ToLower(raw), raw: raw, line: startLine, col: startCol})
			start = -1
		}
	}
	for i, c := range s {
		switch c {
		case ' ', '\t', '\r':
			flush(i)
			col++
		case '\n':
			flush(i)
			line++
			col = 1
		default:
			if start < 0 {
				start, startLine, startCol = i, line, col
			}
			col++
		}
	}
	flush(len(s))
	return out
}

// ParseFilter compiles a filter expression; empty input returns a
// match-all filter. Errors carry the line and column of the word that
// broke the parse. An "and" or "or" needs a predicate on both sides: a
// leading or trailing one, or one right after another, is an error at
// that word rather than a filter that silently matches less.
func ParseFilter(s string) (*Filter, error) {
	f := &Filter{src: s}
	toks := tokenize(s)
	if len(toks) == 0 {
		return f, nil
	}
	conj := []pred{}
	i := 0
	next := func() (token, bool) {
		if i >= len(toks) {
			return token{}, false
		}
		tk := toks[i]
		i++
		return tk, true
	}
	perr := func(tk token, format string, args ...any) error {
		return fmt.Errorf("obs: filter %q: line %d col %d: %s", s, tk.line, tk.col, fmt.Sprintf(format, args...))
	}
	// conn is the connective still waiting for its right-hand
	// predicate; the start of the input waits for a predicate too.
	var conn *token
	waiting := true
	for {
		tk, ok := next()
		if !ok {
			break
		}
		if tk.w == "or" || tk.w == "and" {
			if waiting {
				return nil, perr(tk, "dangling %q", tk.w)
			}
			conn, waiting = &tk, true
			if tk.w == "or" {
				f.alts = append(f.alts, conj)
				conj = []pred{}
			}
			continue // "and" is the default conjunction
		}
		waiting = false
		var p pred
		for tk.w == "not" { // chained "not"s toggle
			p.neg = !p.neg
			notTk := tk
			if tk, ok = next(); !ok {
				return nil, perr(notTk, "dangling %q", "not")
			}
		}
		switch tk.w {
		case "host", "src", "dst":
			arg, ok := next()
			if !ok {
				return nil, perr(tk, "%q needs an address", tk.w)
			}
			a, err := ip.ParseAddr(arg.raw)
			if err != nil {
				return nil, perr(arg, "%v", err)
			}
			p.addr = a
			p.kind = tk.w[0] // 's', 'd'
			if tk.w == "host" {
				p.kind = 'h'
			}
		case "proto":
			arg, ok := next()
			if !ok {
				return nil, perr(tk, "%q needs a number or name", "proto")
			}
			n, err := protoNumber(arg.w)
			if err != nil {
				return nil, perr(arg, "%v", err)
			}
			p.kind, p.num = 'p', n
		case "icmp", "tcp", "udp", "rdm":
			n, _ := protoNumber(tk.w)
			p.kind, p.num = 'p', n
		case "port":
			arg, ok := next()
			if !ok {
				return nil, perr(tk, "%q needs a number", "port")
			}
			n, err := strconv.ParseUint(arg.w, 10, 16)
			if err != nil {
				if strings.ContainsAny(arg.w, "-:,") {
					return nil, perr(arg, "bad port %q (ranges are not supported; use \"port A or port B\")", arg.raw)
				}
				return nil, perr(arg, "bad port %q", arg.raw)
			}
			p.kind, p.num = 'P', uint16(n)
		default:
			return nil, perr(tk, "unknown keyword %q", tk.raw)
		}
		conj = append(conj, p)
	}
	if waiting {
		return nil, perr(*conn, "dangling %q", conn.w)
	}
	f.alts = append(f.alts, conj)
	return f, nil
}

func protoNumber(s string) (uint16, error) {
	switch s {
	case "icmp":
		return ip.ProtoICMP, nil
	case "tcp":
		return ip.ProtoTCP, nil
	case "udp":
		return ip.ProtoUDP, nil
	case "rdm":
		return ip.ProtoRDM, nil
	}
	n, err := strconv.ParseUint(s, 10, 8)
	if err != nil {
		return 0, fmt.Errorf("bad protocol %q", s)
	}
	return uint16(n), nil
}

func (f *Filter) String() string { return f.src }

// Match evaluates the filter against a parsed datagram. A nil filter
// (or one parsed from the empty string) matches everything; a nil
// packet matches only such a match-all filter, so callers can pass nil
// for records that carry no IP datagram at all.
func (f *Filter) Match(pkt *ip.Packet) bool {
	if f == nil || len(f.alts) == 0 {
		return true
	}
	if pkt == nil {
		return false
	}
	for _, conj := range f.alts {
		ok := true
		for _, p := range conj {
			if p.eval(pkt) == p.neg {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func (p pred) eval(pkt *ip.Packet) bool {
	switch p.kind {
	case 'h':
		return pkt.Src == p.addr || pkt.Dst == p.addr
	case 's':
		return pkt.Src == p.addr
	case 'd':
		return pkt.Dst == p.addr
	case 'p':
		return uint16(pkt.Proto) == p.num
	case 'P':
		if pkt.FragOff != 0 || (pkt.Proto != ip.ProtoTCP && pkt.Proto != ip.ProtoUDP && pkt.Proto != ip.ProtoRDM) {
			return false
		}
		if len(pkt.Payload) < 4 {
			return false
		}
		sp := uint16(pkt.Payload[0])<<8 | uint16(pkt.Payload[1])
		dp := uint16(pkt.Payload[2])<<8 | uint16(pkt.Payload[3])
		return sp == p.num || dp == p.num
	}
	return false
}
