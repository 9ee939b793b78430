package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"packetradio/internal/sim"
)

// Link types for the captures this simulator produces, from the
// tcpdump.org registry.
const (
	// LinkTypeRaw is DLT_RAW: each record is a raw IP datagram (the
	// netif/ipstack tap).
	LinkTypeRaw uint32 = 101
	// LinkTypeAX25KISS is DLT_AX25_KISS: each record is a KISS frame —
	// the command byte followed by the unescaped payload, no FENDs —
	// exactly what crosses the host⇄TNC serial line (the paper's
	// debugging vantage point).
	LinkTypeAX25KISS uint32 = 202
)

const (
	pcapMagic   = 0xa1b2c3d4 // microsecond timestamps, host write order
	pcapVersion = 0x0002_0004
	pcapSnapLen = 65535
)

// PcapWriter emits a standard little-endian pcap 2.4 stream stamped
// with VIRTUAL time: ts_sec/ts_usec are the scheduler clock, not wall
// time, so a captured run is byte-for-byte deterministic for a given
// seed — which is what lets the golden-file test hold capture output
// to exact equality. Any pcap reader (tcpdump, wireshark, kissdump -r)
// opens the result; the timestamps simply count from the simulation
// epoch instead of 1970.
type PcapWriter struct {
	w     io.Writer
	err   error
	count uint64
}

// NewPcapWriter writes the file header and returns the writer.
func NewPcapWriter(w io.Writer, linkType uint32) (*PcapWriter, error) {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:], 2)  // version major
	binary.LittleEndian.PutUint16(hdr[6:], 4)  // version minor
	binary.LittleEndian.PutUint32(hdr[8:], 0)  // thiszone
	binary.LittleEndian.PutUint32(hdr[12:], 0) // sigfigs
	binary.LittleEndian.PutUint32(hdr[16:], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkType)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &PcapWriter{w: w}, nil
}

// Count reports records written.
func (pw *PcapWriter) Count() uint64 { return pw.count }

// Err reports the first write error; once set, WritePacket is a no-op
// (a capture must never take down the simulation it observes).
func (pw *PcapWriter) Err() error { return pw.err }

// WritePacket appends one record stamped at virtual time t.
func (pw *PcapWriter) WritePacket(t sim.Time, data []byte) {
	if pw == nil || pw.err != nil {
		return
	}
	if len(data) > pcapSnapLen {
		data = data[:pcapSnapLen]
	}
	d := t.Duration()
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[0:], uint32(d/time.Second))
	binary.LittleEndian.PutUint32(rec[4:], uint32((d%time.Second)/time.Microsecond))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(data)))
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(data)))
	if _, err := pw.w.Write(rec[:]); err != nil {
		pw.err = err
		return
	}
	if _, err := pw.w.Write(data); err != nil {
		pw.err = err
		return
	}
	pw.count++
}

// PcapPacket is one record read back from a capture.
type PcapPacket struct {
	T    time.Duration // virtual time since the simulation epoch
	Data []byte
}

// ReadPcap parses a little-endian pcap stream, returning the link type
// and every record. Truncated trailing records are an error.
func ReadPcap(r io.Reader) (linkType uint32, pkts []PcapPacket, err error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("pcap: short header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != pcapMagic {
		return 0, nil, fmt.Errorf("pcap: bad magic %#x (big-endian or pcapng captures are not supported)", got)
	}
	if maj, min := binary.LittleEndian.Uint16(hdr[4:]), binary.LittleEndian.Uint16(hdr[6:]); maj != 2 || min != 4 {
		return 0, nil, fmt.Errorf("pcap: unsupported version %d.%d", maj, min)
	}
	linkType = binary.LittleEndian.Uint32(hdr[20:])
	for {
		var rec [16]byte
		if _, err := io.ReadFull(r, rec[:]); err == io.EOF {
			return linkType, pkts, nil
		} else if err != nil {
			return linkType, pkts, fmt.Errorf("pcap: short record header: %w", err)
		}
		sec := binary.LittleEndian.Uint32(rec[0:])
		usec := binary.LittleEndian.Uint32(rec[4:])
		caplen := binary.LittleEndian.Uint32(rec[8:])
		if caplen > pcapSnapLen {
			return linkType, pkts, fmt.Errorf("pcap: record caplen %d exceeds snaplen", caplen)
		}
		data := make([]byte, caplen)
		if _, err := io.ReadFull(r, data); err != nil {
			return linkType, pkts, fmt.Errorf("pcap: short record body: %w", err)
		}
		pkts = append(pkts, PcapPacket{
			T:    time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond,
			Data: data,
		})
	}
}
