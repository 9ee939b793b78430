// Package packetradio is a full reproduction, as a deterministic
// discrete-event simulation, of the system described in Neuman &
// Yamamoto, "Adding Packet Radio to the Ultrix Kernel" (USENIX 1988):
// an AX.25/KISS packet-radio driver in a 4.3BSD-style IP stack, and a
// MicroVAX gateway joining the amateur packet radio network (AMPRnet,
// net 44/8, 1200 bps shared radio channel) to an Ethernet and the
// Internet — plus every subsystem the paper touches: TNCs (KISS and
// native firmware), digipeaters, the §4.3 access-control scheme with
// its ICMP extensions, the §2.4 application gateway and NET/ROM
// backbone, BBSs, and the telnet/FTP/SMTP services used across the
// gateway, with the §5 distributed callbook as an extension.
//
// This package is the public facade: it re-exports the topology
// builder, the canned Seattle scenario of the paper's deployment, and
// the one application-facing API — the 4.3BSD-style socket layer that
// every service (telnet, FTP, SMTP, the callbook, the application
// gateway) is written against. The implementation lives in internal/
// packages (one per subsystem; see DESIGN.md for the inventory and
// EXPERIMENTS.md for the reproduced evaluation).
//
// # Quickstart
//
//	s := packetradio.NewSeattle(packetradio.SeattleConfig{Seed: 1})
//	s.PCs[0].Stack.Ping(packetradio.InternetIP, 56,
//		func(seq uint16, rtt time.Duration, from packetradio.IPAddr) {
//			fmt.Println("reply in", rtt)
//		})
//	s.W.Run(2 * time.Minute) // simulated time; returns in microseconds
//
// Applications use each host's socket layer (Host.Sockets), never raw
// protocol internals:
//
//	ln, _ := s.Internet.Sockets().Listen(7, 5)
//	ln.OnAcceptable = func() { sock, _ := ln.Accept(); ... }
//	c := s.PCs[0].Sockets().Dial(packetradio.InternetIP, 7)
//
// Everything runs on a virtual clock: hours of 1200 bps airtime
// simulate in milliseconds, and runs are bit-for-bit reproducible for
// a given seed.
package packetradio

import (
	"packetradio/internal/acl"
	"packetradio/internal/appgw"
	"packetradio/internal/ax25"
	"packetradio/internal/bbs"
	"packetradio/internal/callbook"
	"packetradio/internal/core"
	"packetradio/internal/ftp"
	"packetradio/internal/ip"
	"packetradio/internal/ipstack"
	"packetradio/internal/netrom"
	"packetradio/internal/radio"
	"packetradio/internal/rdm"
	"packetradio/internal/rspf"
	"packetradio/internal/serial"
	"packetradio/internal/sim"
	"packetradio/internal/smtp"
	"packetradio/internal/socket"
	"packetradio/internal/tcp"
	"packetradio/internal/telnet"
	"packetradio/internal/tnc"
	"packetradio/internal/world"
)

// Simulation core.
type (
	// Scheduler is the discrete-event engine and virtual clock.
	Scheduler = sim.Scheduler
	// SimTime is an instant in virtual time.
	SimTime = sim.Time
)

// NewScheduler creates a standalone event scheduler (the World builder
// creates its own).
func NewScheduler(seed int64) *Scheduler { return sim.NewScheduler(seed) }

// Topology building.
type (
	// World assembles hosts, Ethernets, radio channels and gateways.
	World = world.World
	// Host is one simulated machine (stack + interfaces).
	Host = world.Host
	// RadioPort is the Figure-1 chain: driver⇄serial⇄TNC⇄radio.
	RadioPort = world.RadioPort
	// RadioConfig tunes AttachRadio: serial speed, TNC filter, MTU
	// and MAC. The radio starts at the KISS defaults; Host.SetTNCParams
	// pushes others through the TNC.
	RadioConfig = world.RadioConfig
	// Seattle is the canned scenario of the paper's deployment.
	Seattle = world.Seattle
	// SeattleConfig tunes the canned scenario.
	SeattleConfig = world.SeattleConfig
	// Large is a generated N-station, M-channel scale world.
	Large = world.Large
	// LargeConfig parameterizes NewLarge.
	LargeConfig = world.LargeConfig
)

// NewWorld creates an empty world.
func NewWorld(seed int64) *World { return world.New(seed) }

// NewSeattle builds the paper's §2.3 deployment: gateway MicroVAX,
// department Ethernet, and PCs on the 1200 bps radio channel.
func NewSeattle(cfg SeattleConfig) *Seattle { return world.NewSeattle(cfg) }

// NewLarge generates an N-station scale world: stations round-robin
// across M radio channels, one gateway per channel on a shared
// Ethernet (E14's topology).
func NewLarge(cfg LargeConfig) *Large { return world.NewLarge(cfg) }

// The scenario's well-known addresses.
var (
	// GatewayIP is 44.24.0.28, the paper's actual gateway address.
	GatewayIP = world.GatewayIP
	// GatewayEtherIP is the gateway's Ethernet-side address.
	GatewayEtherIP = world.GatewayEtherIP
	// InternetIP is the Ethernet host of the paper's first test.
	InternetIP = world.InternetIP
	// Gateway2IP / Gateway2EtherIP belong to the optional second
	// gateway (SeattleConfig.SecondGateway) used by the RSPF failover
	// scenarios.
	Gateway2IP      = world.Gateway2IP
	Gateway2EtherIP = world.Gateway2EtherIP
)

// PCIP returns the address of scenario radio PC i (0-based).
func PCIP(i int) IPAddr { return world.PCIP(i) }

// Addressing.
type (
	// IPAddr is an IPv4 address.
	IPAddr = ip.Addr
	// IPMask is a netmask.
	IPMask = ip.Mask
	// AX25Addr is a callsign+SSID link address.
	AX25Addr = ax25.Addr
)

// ParseIP parses dotted-quad notation.
func ParseIP(s string) (IPAddr, error) { return ip.ParseAddr(s) }

// MustIP is ParseIP that panics (literals).
func MustIP(s string) IPAddr { return ip.MustAddr(s) }

// ParseCall parses "CALL" or "CALL-SSID".
func ParseCall(s string) (AX25Addr, error) { return ax25.NewAddr(s) }

// MustCall is ParseCall that panics (literals).
func MustCall(s string) AX25Addr { return ax25.MustAddr(s) }

// The socket layer — the application API. Everything above the
// transports programs against these types; the per-protocol callback
// surfaces (tcp.Conn, udp.Handler) are no longer exported.
type (
	// Sockets is one host's socket layer (Host.Sockets or NewSockets).
	Sockets = socket.Layer
	// Socket is one socket: SOCK_STREAM, SOCK_DGRAM, SOCK_RAW or
	// SOCK_RDM.
	Socket = socket.Socket
	// Listener is a listening socket: SOCK_STREAM (Sockets.Listen,
	// with a bounded backlog) or SOCK_RDM (Sockets.ListenRDM).
	Listener = socket.Listener
	// Datagram is a received datagram with its metadata.
	Datagram = socket.Datagram
	// Framer assembles lines / counted regions from a byte stream.
	Framer = socket.Framer
	// Writer trickles queued output into a stream socket as the send
	// buffer opens (the event-driven blocking write).
	Writer = socket.Writer
	// TCPConfig tunes stream sockets: the §4.1 RTO policy (adaptive
	// or a fixed 1.5 s), the retry limit, the MSS and slow start. The
	// RTO bounds and the 2048-byte window are protocol constants.
	TCPConfig = tcp.Config
	// TCPStats are per-stream transport counters (Socket.StreamStats).
	TCPStats = tcp.ConnStats
	// RDMMode is a per-message SOCK_RDM delivery mode.
	RDMMode = rdm.Mode
)

// Socket-layer sentinels (EWOULDBLOCK-style results).
var (
	ErrWouldBlock = socket.ErrWouldBlock
	ErrSockClosed = socket.ErrClosed
)

// Socket types: the BSD SOCK_STREAM, SOCK_DGRAM and SOCK_RAW, and
// SOCK_RDM for reliable datagrams.
const (
	SockStream = socket.SockStream
	SockDgram  = socket.SockDgram
	SockRaw    = socket.SockRaw
	SockRDM    = socket.SockRDM
)

// SOCK_RDM per-message delivery modes (Socket.SendMsg).
const (
	RDMUnreliable        = rdm.Unreliable
	RDMUnreliableOrdered = rdm.UnreliableOrdered
	RDMReliable          = rdm.Reliable
	RDMReliableOrdered   = rdm.ReliableOrdered
)

// Shutdown directions for Socket.Shutdown.
const (
	ShutRd   = socket.ShutRd
	ShutWr   = socket.ShutWr
	ShutRdWr = socket.ShutRdWr
)

// NewSockets attaches a socket layer to a stack. Hosts built through
// World already have one (Host.Sockets); this is for hand-assembled
// stacks.
func NewSockets(s *Stack) *Sockets { return socket.New(s) }

// NewWriter attaches a Writer to a stream socket.
func NewWriter(s *Socket) *Writer { return socket.NewWriter(s) }

// Pump wires a stream socket's readable events into sink; onClose
// fires once at EOF (nil) or on a connection error.
func Pump(s *Socket, sink func([]byte), onClose func(error)) { socket.Pump(s, sink, onClose) }

// AcceptLoop arms a listener to hand every inbound connection to fn
// as it arrives, including any already queued.
func AcceptLoop(ln *Listener, fn func(*Socket)) { socket.AcceptLoop(ln, fn) }

// Substrate layers.
type (
	// Stack is a host's IP layer.
	Stack = ipstack.Stack
	// Driver is the paper's packet-radio pseudo-device driver.
	Driver = core.PacketRadioIf
	// Gateway is the kernel gateway composition (forwarding + ACL).
	Gateway = core.Gateway
	// ACL is the §4.3 authorization table.
	ACL = acl.Table
	// TNC is a KISS-firmware TNC.
	TNC = tnc.TNC
	// NativeTNC is a TNC running its ROM firmware.
	NativeTNC = tnc.Native
	// Digipeater is a standalone AX.25 repeater.
	Digipeater = tnc.Digipeater
	// RadioChannel is the shared RF medium.
	RadioChannel = radio.Channel
	// NetROMNode is a NET/ROM backbone node.
	NetROMNode = netrom.Node
	// NetROMTunnel is an IP-over-NET/ROM interface.
	NetROMTunnel = netrom.IPTunnel
	// AppGateway is the §2.4 user-space application gateway.
	AppGateway = appgw.Gateway
	// SerialEnd is one end of a simulated RS-232 line.
	SerialEnd = serial.End
	// RadioParams are per-transceiver channel-access parameters.
	RadioParams = radio.Params
)

// Dynamic routing (the RSPF link-state daemon — the step past §4.2's
// single static gateway).
type (
	// RSPFRouter is a per-host link-state routing daemon; start one
	// with Host.EnableRSPF.
	RSPFRouter = rspf.Router
	// RSPFConfig tunes the daemon's hello and refresh timers and its
	// route owner tag.
	RSPFConfig = rspf.Config
	// RSPFDatabase is a link-state database (exposed for inspection
	// and for driving SPF directly in benchmarks).
	RSPFDatabase = rspf.Database
	// RSPFLSA is one router's flooded link-state advertisement.
	RSPFLSA = rspf.LSA
)

// RSPFProto is the IP protocol number the daemon's datagrams use.
const RSPFProto = rspf.Proto

// NewRSPF builds (without starting) a routing daemon over a stack;
// most callers should use Host.EnableRSPF, which also wires channel
// bit rates into the link costs.
func NewRSPF(s *Stack, cfg RSPFConfig) *RSPFRouter { return rspf.New(s, cfg) }

// DefaultRadioParams returns KISS-standard channel-access parameters.
func DefaultRadioParams() RadioParams { return radio.DefaultParams() }

// NewSerialLine creates a simulated RS-232 line (both ends).
func NewSerialLine(s *Scheduler, baud int) (*SerialEnd, *SerialEnd) {
	return serial.NewLine(s, baud)
}

// NewNativeTNC builds a ROM-firmware TNC for terminal users.
func NewNativeTNC(s *Scheduler, host *SerialEnd, rf *radio.Transceiver, call AX25Addr) *NativeTNC {
	return tnc.NewNative(s, host, rf, call)
}

// NewAppGateway wires the §2.4 application gateway to a packet-radio
// driver and a socket layer.
func NewAppGateway(s *Scheduler, drv *Driver, sl *Sockets) *AppGateway {
	return appgw.New(s, drv, sl)
}

// RTO policy constants for TCPConfig.Mode (the §4.1 experiment knob).
const (
	RTOAdaptive = tcp.RTOAdaptive
	RTOFixed    = tcp.RTOFixed
)

// Services.
type (
	// TelnetServer is a telnet daemon bound to a socket layer.
	TelnetServer = telnet.Server
	// TelnetClient is a scripted telnet user.
	TelnetClient = telnet.Client
	// FTPServer is an FTP daemon.
	FTPServer = ftp.Server
	// FTPClient drives an FTP session programmatically.
	FTPClient = ftp.Client
	// SMTPServer is an SMTP daemon with in-memory mailboxes.
	SMTPServer = smtp.Server
	// SMTPMessage is one piece of mail.
	SMTPMessage = smtp.Message
	// BBS is one bulletin-board station.
	BBS = bbs.Board
	// CallbookSrv answers queries for one region's callbook records.
	CallbookSrv = callbook.Server
	// CallbookRec is one callbook entry.
	CallbookRec = callbook.Record
)

// ServeTelnet starts a telnet daemon on a socket layer.
func ServeTelnet(sl *Sockets, srv *TelnetServer) error { return telnet.Serve(sl, srv) }

// ServeFTP starts an FTP daemon on a socket layer.
func ServeFTP(sl *Sockets, srv *FTPServer) error { return ftp.Serve(sl, srv) }

// ServeSMTP starts an SMTP daemon on a socket layer.
func ServeSMTP(sl *Sockets, srv *SMTPServer) error { return smtp.Serve(sl, srv) }

// SendMail submits one message to the SMTP server at addr.
func SendMail(sl *Sockets, addr IPAddr, msg SMTPMessage, done func(smtp.Result)) {
	smtp.Send(sl, addr, msg, done)
}

// DialTelnet connects a scripted telnet client.
func DialTelnet(sl *Sockets, addr IPAddr) *TelnetClient { return telnet.DialClient(sl, addr) }

// DialFTP connects a scripted FTP client.
func DialFTP(sl *Sockets, addr IPAddr) *FTPClient { return ftp.Dial(sl, addr) }

// ServeCallbook starts a §5 callbook server on a socket layer.
func ServeCallbook(sl *Sockets, srv *CallbookSrv) error { return callbook.Serve(sl, srv) }

// NewCallbookResolver opens a callbook resolver (client) on a socket
// layer.
func NewCallbookResolver(sl *Sockets) (*callbook.Resolver, error) {
	return callbook.NewResolver(sl)
}
