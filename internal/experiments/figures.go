package experiments

import (
	"fmt"
	"io"
	"time"

	"packetradio/internal/ax25"
	"packetradio/internal/ip"
	"packetradio/internal/kiss"
	"packetradio/internal/tcp"
	"packetradio/internal/world"
)

// F1 reproduces Figure 1 ("Radio — TNC — RS-232 line — DZ — Host") as
// a latency decomposition: where the milliseconds go when one IP
// datagram crosses the physical chain, measured end to end in the
// simulator and broken down analytically per stage.
func F1(w io.Writer) *Result {
	r := newResult("F1")
	const payload = 216 // IP payload bytes -> 236-byte datagram

	s := world.NewSeattle(world.SeattleConfig{Seed: 1, NumPCs: 1})
	pc := s.PCs[0]

	// Warm the ARP caches so F1 measures the steady-state data path.
	pingOnce(s.W, pc, world.GatewayIP, 8, 5*time.Minute)

	// One-way time: stamp departure and arrival via the stack taps.
	var depart, arrive time.Duration
	pc.Stack.Tap = func(dir string, pkt *ip.Packet, _ string) {
		if dir == "out" && len(pkt.Payload) >= payload {
			depart = s.W.Sched.Now().Duration()
		}
	}
	s.Gateway.Stack.Tap = func(dir string, pkt *ip.Packet, _ string) {
		if dir == "in" && len(pkt.Payload) >= payload {
			arrive = s.W.Sched.Now().Duration()
		}
	}
	pc.Stack.Send(ip.ProtoUDP, ip.Addr{}, world.GatewayIP, make([]byte, payload), 0, 0)
	s.W.Run(2 * time.Minute)
	oneWay := arrive - depart

	// Analytic components for the same frame.
	ipLen := ip.HeaderLen + payload
	ax25Len := ipLen + 2*ax25.AddrLen + 2 // addresses + control + PID
	kissLen := kiss.EncodedLen(0, kiss.CmdData, make([]byte, ax25Len))
	serialT := time.Duration(float64(kissLen) * 10 / 9600 * float64(time.Second))
	txdelay := 300 * time.Millisecond
	airT := s.Channel.AirTime(ax25Len + 2) // +FCS

	t := newTable(w, "F1", "one 236-byte IP datagram, PC -> gateway (9600 baud serial, 1200 bps radio)")
	t.row("stage", "bytes", "time (ms)")
	t.row("host -> TNC serial (KISS framed)", kissLen, ms(serialT))
	t.row("TNC keyup (TXDELAY)", "-", ms(txdelay))
	t.row("radio airtime (AX.25+FCS+flags)", ax25Len+2, ms(airT))
	t.row("TNC -> host serial (gateway side)", kissLen, ms(serialT))
	t.row("sum of stages", "-", ms(serialT+txdelay+airT+serialT))
	t.row("measured one-way", "-", ms(oneWay))
	t.flush()

	r.set("one_way_ms", float64(oneWay)/1e6)
	r.set("airtime_ms", float64(airT)/1e6)
	r.set("stage_sum_ms", float64(serialT+txdelay+airT+serialT)/1e6)
	return r
}

// F2 reproduces Figure 2 (the ISO/OSI comparison) as a per-layer
// overhead table: the bytes each layer of the implementation column
// adds around one telnet keystroke and one FTP data block.
func F2(w io.Writer) *Result {
	r := newResult("F2")

	layer := func(name string, paperLayer string, add int, running int) []any {
		return []any{name, paperLayer, add, running}
	}
	render := func(t *table, payload int) int {
		tcpLen := payload + tcp.HeaderLen
		ipLen := tcpLen + ip.HeaderLen
		ax25Len := ipLen + 2*ax25.AddrLen + 2
		fcsLen := ax25Len + 2
		kissLen := kiss.EncodedLen(0, kiss.CmdData, make([]byte, ax25Len)) // KISS wraps pre-FCS frame
		t.row("application data", "7 (telnet/FTP/SMTP)", payload, payload)
		t.row(layer("TCP", "4 (TCP)", tcp.HeaderLen, tcpLen)...)
		t.row(layer("IP", "3 (IP)", ip.HeaderLen, ipLen)...)
		t.row(layer("AX.25 UI", "2 (AX.25)", 2*ax25.AddrLen+2, ax25Len)...)
		t.row(layer("FCS (TNC)", "2 (TNC/KISS)", 2, fcsLen)...)
		t.row(layer("KISS serial framing", "2 (TNC/KISS)", kissLen-ax25Len, kissLen)...)
		return fcsLen
	}

	t := newTable(w, "F2a", "one telnet keystroke (1 byte)")
	t.row("layer", "paper's OSI row", "adds", "total")
	total1 := render(t, 1)
	t.flush()
	fmt.Fprintf(w, "   efficiency: %.1f%% of on-air bytes are user data\n", 100.0/float64(total1))

	t = newTable(w, "F2b", "one FTP block (216 bytes, fills the AX.25 MTU)")
	t.row("layer", "paper's OSI row", "adds", "total")
	total216 := render(t, 216)
	t.flush()
	fmt.Fprintf(w, "   efficiency: %.1f%% of on-air bytes are user data\n", 21600.0/float64(total216))

	r.set("keystroke_onair_bytes", float64(total1))
	r.set("block_efficiency_pct", 21600.0/float64(total216))
	return r
}
