package wirenet

// The fuzz targets live in package wirenet_test so that they can import
// internal/dist for its payload registrations; these names give them
// the framing and the codec.
type Wmsg = wmsg

const FkDeliver = fkDeliver

var (
	ReadFrame     = readFrame
	ParseWmsg     = parseWmsg
	AppendWmsg    = appendWmsg
	EncodePayload = encodePayload
	DecodePayload = decodePayload
)
