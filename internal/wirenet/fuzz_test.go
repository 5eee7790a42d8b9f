package wirenet_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	_ "repro/internal/dist" // registers the protocol's payloads
	"repro/internal/transport"
	"repro/internal/wirenet"
)

// samples returns a zero value of every registered payload type: the
// protocol's, and this package's test payloads.
func samples(t testing.TB) []any {
	var out []any
	for _, tag := range wirenet.RegisteredPayloads() {
		p, ok := wirenet.SamplePayload(tag)
		if !ok {
			t.Fatalf("SamplePayload(%d) not found for a registered tag", tag)
		}
		out = append(out, p)
	}
	if len(out) < 20 {
		t.Fatalf("%d payload types registered; internal/dist's are missing", len(out))
	}
	return out
}

// FuzzFrameDecode feeds arbitrary bytes through everything the hub
// decodes from a lane: readFrame, parseWmsg and decodePayload. None of
// them may panic, and whatever decodes must decode to the same message
// and payload after re-encoding.
func FuzzFrameDecode(f *testing.F) {
	for i, p := range samples(f) {
		pb, err := wirenet.EncodePayload(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		m := wirenet.Wmsg{From: 1, To: transport.NodeID(i), EdgeSeq: 3, GSeq: 9, At: -2, Words: 1, Payload: pb}
		f.Add(frame(wirenet.AppendWmsg([]byte{wirenet.FkDeliver}, m)))
	}
	f.Add([]byte{0})
	f.Add([]byte{0x80, 0x80, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			body, err := wirenet.ReadFrame(r, nil)
			if err != nil {
				return
			}
			m, err := wirenet.ParseWmsg(body[1:])
			if err != nil {
				continue
			}
			again, err := wirenet.ReadFrame(bufio.NewReader(bytes.NewReader(frame(wirenet.AppendWmsg(body[:1:1], m)))), nil)
			if err != nil {
				t.Fatalf("re-encoded frame of %+v does not read back: %v", m, err)
			}
			m2, err := wirenet.ParseWmsg(again[1:])
			if err != nil || !reflect.DeepEqual(m, m2) {
				t.Fatalf("message %+v re-encoded to %+v (%v)", m, m2, err)
			}
			p, err := wirenet.DecodePayload(m.Payload)
			if err != nil {
				continue
			}
			pb, err := wirenet.EncodePayload(nil, p)
			if err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", p, err)
			}
			if p2, err := wirenet.DecodePayload(pb); err != nil || p2 != p {
				t.Fatalf("payload %+v re-encoded to %+v (%v)", p, p2, err)
			}
		}
	})
}

// FuzzPayloadRoundTrip fills one registered payload type, chosen by the
// first byte, with field values from the rest, each cut to its field's
// width: every value must encode and decode back to itself.
func FuzzPayloadRoundTrip(f *testing.F) {
	types := samples(f)
	for i := range types {
		f.Add(byte(i), []byte{1, 2, 3, 0xff, 0x80, 0, 0x7f, 0xfe, 9})
	}
	f.Fuzz(func(t *testing.T, pick byte, data []byte) {
		v := reflect.New(reflect.TypeOf(types[int(pick)%len(types)])).Elem()
		fill(v, &data)
		p := v.Interface()
		pb, err := wirenet.EncodePayload(nil, p)
		if err != nil {
			t.Fatalf("%T does not encode: %v", p, err)
		}
		if got, err := wirenet.DecodePayload(pb); err != nil || got != p {
			t.Fatalf("%+v round-tripped to %+v (%v)", p, got, err)
		}
	})
}

// fill sets every integer field of v, depth first, from up to 8 bytes
// of *data each, sign- or zero-extended from the field's width.
func fill(v reflect.Value, data *[]byte) {
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), data)
		}
		return
	}
	var word [8]byte
	*data = (*data)[copy(word[:], *data):]
	x := binary.LittleEndian.Uint64(word[:])
	shift := 64 - v.Type().Bits()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(x<<shift) >> shift)
	default:
		v.SetUint(x << shift >> shift)
	}
}

// frame prefixes body with its length.
func frame(body []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}
