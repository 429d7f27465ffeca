package netpkt

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"
)

// benchCapture writes n UDP packets with payload bytes of payload each,
// spread over many flows.
func benchCapture(b *testing.B, n, payload int) []byte {
	b.Helper()
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	p := samplePacket(ProtoUDP)
	p.Payload = bytes.Repeat([]byte{0xab}, payload)
	for i := 0; i < n; i++ {
		p.SrcPort = uint16(1024 + i)
		p.SrcIP[3] = byte(i)
		p.Timestamp = p.Timestamp.Add(time.Microsecond)
		if err := w.WritePacket(&p); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkPcapDecode times PcapReader.NextValidBatch over an in-memory
// capture of 4096 packets, one op per pass, on header-only frames and
// on frames with a 256 B payload. ns/pkt and allocs/pkt are per
// decoded packet; allocs/pkt includes each pass's reader set-up (five
// allocations per pass, the 64 KiB read buffer among them), and on the
// payload case the one copy of each payload.
func BenchmarkPcapDecode(b *testing.B) {
	const pkts = 4096
	for _, bc := range []struct {
		name    string
		payload int
	}{
		{"header-only", 0},
		{"payload-256B", 256},
	} {
		b.Run(bc.name, func(b *testing.B) {
			data := benchCapture(b, pkts, bc.payload)
			buf := make([]Packet, 64)
			var before, after runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := NewPcapReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				got := 0
				for {
					n, err := r.NextValidBatch(buf)
					got += n
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if got != pkts {
					b.Fatalf("decoded %d packets, want %d", got, pkts)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			total := float64(b.N) * pkts
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/pkt")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/pkt")
		})
	}
}
