package wirenet

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
)

// Payload codec: a compact reflection-driven binary encoding for the
// protocol's O(1)-word message structs. The protocol deliberately
// restricts payloads to flat structs of integer scalars and nested
// integer structs (IDs, counts, addresses, slots) — exactly what the
// paper's word-accounting charges for — so the codec supports nothing
// else: signed integers as zigzag varints, unsigned integers as
// varints, nested structs recursively, in field order. No field names
// or type metadata cross the wire; the one-byte registry tag picks the
// Go type on decode, which keeps a typical message under two dozen
// bytes.
//
// Types are registered from init() (see internal/dist's wirecodec.go),
// before any Hub exists, so the registry is read-only at runtime and
// needs no locking. Only the hub encodes and decodes payloads; workers
// relay frames without reading them.

var (
	codecByTag  = map[byte]reflect.Type{}
	codecByType = map[reflect.Type]byte{}
)

// RegisterPayload maps a frame tag to a payload struct type. Both
// directions must be unique; sample must be a struct whose (exported)
// fields are integers or structs of the same shape, recursively. Call
// from init().
func RegisterPayload(tag byte, sample any) {
	t := reflect.TypeOf(sample)
	if t == nil || t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("wirenet: RegisterPayload(%d): sample must be a struct, got %T", tag, sample))
	}
	if prev, dup := codecByTag[tag]; dup {
		panic(fmt.Sprintf("wirenet: payload tag %d already registered to %v", tag, prev))
	}
	if prev, dup := codecByType[t]; dup {
		panic(fmt.Sprintf("wirenet: payload type %v already registered as tag %d", t, prev))
	}
	if err := checkCodecType(t); err != nil {
		panic(fmt.Sprintf("wirenet: RegisterPayload(%d, %v): %v", tag, t, err))
	}
	codecByTag[tag] = t
	codecByType[t] = tag
}

// RegisteredPayloads returns the registered tags in ascending order
// (for the codec round-trip fuzz).
func RegisteredPayloads() []byte {
	tags := make([]byte, 0, len(codecByTag))
	for tag := range codecByTag {
		tags = append(tags, tag)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	return tags
}

// SamplePayload returns a zero value of the payload type registered
// under tag (test helper).
func SamplePayload(tag byte) (any, bool) {
	t, ok := codecByTag[tag]
	if !ok {
		return nil, false
	}
	return reflect.New(t).Elem().Interface(), true
}

// checkCodecType verifies at registration time that every field is
// encodable, so Send never discovers an unsupported shape mid-run.
func checkCodecType(t reflect.Type) error {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			return fmt.Errorf("field %s is unexported", f.Name)
		}
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		case reflect.Struct:
			if err := checkCodecType(f.Type); err != nil {
				return fmt.Errorf("field %s: %w", f.Name, err)
			}
		default:
			return fmt.Errorf("field %s has unsupported kind %v", f.Name, f.Type.Kind())
		}
	}
	return nil
}

// encodePayload appends tag + field encoding of p.
func encodePayload(buf []byte, p any) ([]byte, error) {
	v := reflect.ValueOf(p)
	tag, ok := codecByType[v.Type()]
	if !ok {
		return nil, fmt.Errorf("wirenet: unregistered payload type %T", p)
	}
	buf = append(buf, tag)
	return encodeValue(buf, v), nil
}

func encodeValue(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(buf, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(buf, v.Uint())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = encodeValue(buf, v.Field(i))
		}
		return buf
	default:
		// Unreachable: shapes are validated at registration.
		panic(fmt.Sprintf("wirenet: unencodable kind %v", v.Kind()))
	}
}

// decodePayload decodes one tag-prefixed payload back into its
// registered Go type (returned as a struct value, matching how the
// protocol sends payloads).
func decodePayload(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wirenet: empty payload")
	}
	t, ok := codecByTag[data[0]]
	if !ok {
		return nil, fmt.Errorf("wirenet: unknown payload tag %d", data[0])
	}
	v := reflect.New(t).Elem()
	d := decoder{data: data, off: 1}
	decodeValue(&d, v)
	if d.err != nil {
		return nil, fmt.Errorf("wirenet: decoding %v: %w", t, d.err)
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("wirenet: %d trailing bytes after %v", len(data)-d.off, t)
	}
	return v.Interface(), nil
}

// decodeValue fills v from d. A value too wide for its field is an
// error: SetInt and SetUint would silently truncate it.
func decodeValue(d *decoder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := d.varint()
		if v.OverflowInt(x) {
			d.err = fmt.Errorf("%d overflows %v", x, v.Type())
			return
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := d.uvarint()
		if v.OverflowUint(x) {
			d.err = fmt.Errorf("%d overflows %v", x, v.Type())
			return
		}
		v.SetUint(x)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			decodeValue(d, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("wirenet: undecodable kind %v", v.Kind()))
	}
}
