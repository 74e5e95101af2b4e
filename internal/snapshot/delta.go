// rmq-delt/v1: the delta stream that puts cache.SyncState's
// publish/pull exchange on the wire. Where a snapshot moves a whole
// store between cold processes, a delta moves *changes* between live
// ones: every bucket changed since a per-store replication cursor ships
// its entire retained frontier, and the receiving store merges it
// through the ordinary admission path (cache.Shared.MergeBucket), which
// deduplicates and keeps dominance intact. The stream is written and
// read by the snapshot codec's encoder and decoder, in its frame and
// store-section layout:
//
//	"rmq-delt" | uvarint version | u64 fingerprint | u64 instance
//	uvarint #stores | store* | u32 CRC32-IEEE
//
// with each store section identical to a snapshot section except for
// one extra uvarint — the replication cursor after this delta — between
// the iteration counter and the cost dimension. The instance id names
// the sender's incarnation of the catalog: cursors are meaningless
// across a restart or a re-registration, so a receiver whose remembered
// instance differs must discard its cursors and pull from zero (the
// snapshot-equivalent resync). Decoding carries the same guarantees as
// rmq-snap/v1: CRC-first, bounds-checked, errors — never panics — on
// adversarial input.
package snapshot

// magicDelta opens every delta stream.
const magicDelta = "rmq-delt"

// EncodeDeltas serializes every store's changes since its cursor
// (TaggedStore.Since) into one rmq-delt/v1 stream and returns, per tag,
// the cursor the puller should present next time. Stores with no
// changes still contribute a section (header and fresh cursor, no
// buckets), so a puller's cursor map converges even when only some
// stores are hot.
func EncodeDeltas(fingerprint, instance uint64, stores []TaggedStore) ([]byte, map[string]uint64, error) {
	return encode(true, fingerprint, instance, stores)
}

// PeekDelta verifies the frame and returns the header without applying
// anything.
func PeekDelta(data []byte) (Header, error) {
	h, _, err := decode(true, data, nil)
	return h, err
}

// DecodeDeltas verifies the frame and merges every store section into
// the live store returned by open, returning the header and the per-tag
// cursors for the next pull. Unlike Decode, the opened stores may be
// warm and populated: buckets apply through MergeBucket (idempotent
// admission, local epochs) and counters through MergeState. A partial
// failure leaves already-merged sections in place — safe, because every
// merged plan went through ordinary admission; the caller just retries
// from its previous cursors.
func DecodeDeltas(data []byte, open OpenStore) (Header, map[string]uint64, error) {
	return decode(true, data, open)
}
