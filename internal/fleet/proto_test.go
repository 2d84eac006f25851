package fleet

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"ags/internal/binfmt"
)

// appendMessage frames one message with a ready-made payload behind whatever
// buf holds, through the framing every send goes through.
func appendMessage(buf []byte, v verb, payload []byte) []byte {
	start := len(buf)
	return endMessage(append(beginMessage(buf, v), payload...), start)
}

// recvWire wraps raw bytes as the read side of a wire, no conn needed.
func recvWire(data []byte) *wire {
	return &wire{r: bufio.NewReader(bytes.NewReader(data))}
}

// registeredVerbs returns every valid wire verb in declaration order: what
// the damage tables and fuzz seeds range over.
func registeredVerbs() []verb {
	vs := make([]verb, 0, int(verbEnd)-1)
	for v := verb(1); v < verbEnd; v++ {
		vs = append(vs, v)
	}
	return vs
}

func TestMessageRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello fleet"),
		nil,
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	verbs := []verb{vOpen, vStats, vPush}
	var stream []byte
	for i, p := range payloads {
		stream = appendMessage(stream, verbs[i], p)
	}
	w := recvWire(stream)
	for i, want := range payloads {
		v, got, err := w.recv()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if v != verbs[i] {
			t.Errorf("message %d: verb %s, want %s", i, v, verbs[i])
		}
		if !bytes.Equal(got, want) {
			t.Errorf("message %d: payload %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, _, err := w.recv(); err != io.EOF {
		t.Errorf("after last message: err = %v, want io.EOF", err)
	}
}

// reframe recomputes the trailing checksum after a deliberate header or
// payload mutation, so the test reaches the validation step it aims at
// instead of tripping the checksum first.
func reframe(msg []byte) []byte {
	body := msg[:len(msg)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// damageModes is the per-frame corruption catalogue: each mode mutates one
// clean frame and names the single sentinel the reader must land on. Modes
// marked needsPayload only apply to frames that carry bytes (payload
// corruption on an empty payload is a no-op).
var damageModes = []struct {
	name         string
	needsPayload bool
	mut          func([]byte) []byte
	want         error
}{
	{"bad magic", false, func(m []byte) []byte {
		m[0] = 'X'
		return m
	}, ErrBadMagic},
	{"version skew", false, func(m []byte) []byte {
		m[4] = ProtocolVersion + 1
		return reframe(m) // valid checksum: version is rejected on its own
	}, ErrVersionSkew},
	{"oversized length prefix", false, func(m []byte) []byte {
		binary.LittleEndian.PutUint64(m[6:14], MaxPayload+1)
		return m
	}, ErrOversized},
	{"truncated header", false, func(m []byte) []byte {
		return m[:headerSize-3]
	}, ErrTruncated},
	{"truncated body", false, func(m []byte) []byte {
		return m[:len(m)-5]
	}, ErrTruncated},
	{"payload corruption", true, func(m []byte) []byte {
		m[headerSize+2] ^= 0x40
		return m
	}, ErrChecksum},
	{"checksum corruption", false, func(m []byte) []byte {
		m[len(m)-1] ^= 0x01
		return m
	}, ErrChecksum},
	{"verb corruption", false, verbByte(0x7F), ErrUnknownVerb},
	// 14 and 15 were job and job-result under protocol version 2: retired
	// numbers are as unknown as ones never assigned.
	{"retired verb 14", false, verbByte(14), ErrUnknownVerb},
	{"retired verb 15", false, verbByte(15), ErrUnknownVerb},
}

// verbByte rewrites a frame's verb byte and re-checksums it: a
// checksum-valid frame carrying a verb we don't speak.
func verbByte(b byte) func([]byte) []byte {
	return func(m []byte) []byte {
		m[5] = b
		return reframe(m)
	}
}

// TestRecvDamageEveryVerb drives every damage mode over every registered wire
// verb, payload-less and payload-carrying — the fleet mirror of the snapshot
// damage contract. Ranging over the verb registry means a newly added verb
// gets per-damage-mode sentinel coverage the moment it exists, with no table
// to remember to extend.
func TestRecvDamageEveryVerb(t *testing.T) {
	payloads := []struct {
		name string
		p    []byte
	}{
		{"empty", nil},
		{"payload", []byte("frame bytes go here")},
	}
	for _, v := range registeredVerbs() {
		for _, pl := range payloads {
			base := appendMessage(nil, v, pl.p)
			// The undamaged frame must decode cleanly before damaging it:
			// a mode that "fails" on an already-broken frame proves nothing.
			if rv, rp, err := recvWire(base).recv(); err != nil || rv != v || !bytes.Equal(rp, pl.p) {
				t.Fatalf("clean %s/%s frame: verb %s payload %d err %v", v, pl.name, rv, len(rp), err)
			}
			for _, mode := range damageModes {
				if mode.needsPayload && len(pl.p) == 0 {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", v, pl.name, mode.name), func(t *testing.T) {
					msg := mode.mut(append([]byte(nil), base...))
					_, _, err := recvWire(msg).recv()
					if !errors.Is(err, mode.want) {
						t.Fatalf("recv = %v, want %v", err, mode.want)
					}
					// Each failure mode must keep its distinct identity: no
					// other sentinel may match.
					for _, other := range []error{ErrBadMagic, ErrVersionSkew, ErrOversized, ErrTruncated, ErrChecksum, ErrUnknownVerb} {
						if other != mode.want && errors.Is(err, other) {
							t.Errorf("error %v also matches %v", err, other)
						}
					}
				})
			}
		}
	}
}

// TestVerbNamesComplete pins the registry itself: every registered verb must
// render a real name (an unnamed verb means verbNames lagged a new verb
// constant, and with it every name-keyed diagnostic).
func TestVerbNamesComplete(t *testing.T) {
	seen := make(map[string]verb)
	for _, v := range registeredVerbs() {
		name := v.String()
		if name == "" || name == fmt.Sprintf("verb(0x%02x)", byte(v)) {
			t.Errorf("verb %d has no entry in verbNames", byte(v))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("verbs %d and %d share the name %q", byte(prev), byte(v), name)
		}
		seen[name] = v
	}
	if verb(0).String() == "" {
		t.Error("verb 0 should render a placeholder name, not empty")
	}
}

// TestErrorClassification pins the recovery layer's transport/application
// split: a reply from a live node (remote error, placement bounce) must
// never be classified as node loss, and genuine transport damage must be.
func TestErrorClassification(t *testing.T) {
	alive := []error{
		decodeErrReply(encodeErrReply(nil, codeInternal, "boom")),
		decodeErrReply(encodeErrReply(nil, codeProto, "bad request")),
		decodeErrReply(encodeErrReply(nil, codeAdmission, "full")),
		decodeErrReply(encodeErrReply(nil, codeDraining, "draining")),
	}
	for _, err := range alive {
		if isNodeLoss(err) {
			t.Errorf("reply from a live node classified as node loss: %v", err)
		}
	}
	dead := []error{
		io.EOF,
		ErrTruncated,
		ErrChecksum,
		fmt.Errorf("write tcp 127.0.0.1: broken pipe"),
	}
	for _, err := range dead {
		if !isNodeLoss(err) {
			t.Errorf("transport failure not classified as node loss: %v", err)
		}
	}
}

func TestRecvCleanEOF(t *testing.T) {
	if _, _, err := recvWire(nil).recv(); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// FuzzRecv feeds arbitrary bytes to the frame reader: it must never panic
// and never return a valid message unless the checksum genuinely holds.
// Every registered verb seeds the corpus, empty and payload-carrying, so new
// verbs are fuzzed from their first run; so do the two retired bytes, because
// a checksum-valid frame with an unknown verb is one no mutation arrives at.
func FuzzRecv(f *testing.F) {
	for _, v := range append(registeredVerbs(), 14, 15) {
		f.Add(appendMessage(nil, v, nil))
		f.Add(appendMessage(nil, v, []byte("seed")))
	}
	f.Add([]byte("AGSF garbage that is not a frame"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, payload, err := recvWire(data).recv()
		if err != nil {
			return
		}
		// recv accepted the frame: re-encoding its content must reproduce a
		// prefix of the input bit for bit.
		re := appendMessage(nil, v, payload)
		if len(data) < len(re) || !bytes.Equal(data[:len(re)], re) {
			t.Fatalf("accepted frame does not round-trip: verb %s, %d byte payload", v, len(payload))
		}
	})
}

func TestErrReplyCodes(t *testing.T) {
	cases := []struct {
		code byte
		want error
	}{
		{codeAdmission, ErrAdmission},
		{codeDraining, ErrDraining},
	}
	for _, tc := range cases {
		err := decodeErrReply(encodeErrReply(nil, tc.code, "node x is busy"))
		if !errors.Is(err, tc.want) {
			t.Errorf("code %d: decoded %v, want %v", tc.code, err, tc.want)
		}
	}
	if err := decodeErrReply(encodeErrReply(nil, codeInternal, "boom")); err == nil {
		t.Error("internal code decoded to nil error")
	}
}

func TestPayloadDecodeRejectsTrailingBytes(t *testing.T) {
	p := encodeOpen(nil, "desk", []byte{1, 2}, []byte{3})
	p = append(p, 0xFF) // one stray byte
	if _, _, _, err := decodeOpen(p); err == nil {
		t.Fatal("decodeOpen accepted trailing bytes")
	}
}

func TestPayloadDecodeRejectsOverlongSlice(t *testing.T) {
	var e binfmt.Enc
	e.U64(1 << 40) // declared slice length far beyond the payload
	if _, _, _, err := decodeOpen(e.Buf); err == nil {
		t.Fatal("decodeOpen accepted slice length beyond payload")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := NodeStats{Name: "node-a", OpenSessions: 3, Draining: true, MaxSessions: 8, MaxResidentBytes: 1 << 20}
	in.Pool.Capacity = 4
	in.Pool.Hits = 17
	in.Pool.ResidentBytes = 12345
	out, err := decodeStats(encodeStats(nil, &in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("stats round-trip: got %+v, want %+v", out, in)
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := ResultSummary{Frames: 16, NumGaussians: 900}
	for i := range in.Digest {
		in.Digest[i] = byte(i * 7)
	}
	out, err := decodeResult(encodeResult(nil, &in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("result round-trip: got %+v, want %+v", out, in)
	}
}
