package forecast

import (
	"encoding/binary"
	"fmt"

	"repro/internal/binenc"
)

// Version-4 envelope integrity block. The header is fixed-size:
//
//	[0:4)   magic "HOTM"
//	[4:6)   version u16
//	[6:10)  payload-section offset u32 (from the file's first byte)
//	[10:26) meta-section checksum   (binenc.Sum, covers [42, payloadOff))
//	[26:42) payload-section checksum (binenc.Sum, covers [payloadOff, len))
//
// The meta section holds the task identity and classifier preamble; the
// payload section holds the flat engine's aligned arrays (empty for
// baselines). The whole-envelope checksum stamped into the registry
// manifest is the checksum of the header itself: it binds the version,
// the section layout and both section sums — and, through the sums, every
// content byte — while staying O(1) to compute.
const (
	envHeaderSize = 42
	envOffPayload = 6
	envOffMetaSum = 10
	envOffPaySum  = 26
)

// envSumAt reads the binenc.Sum stamped at data[off:off+16].
func envSumAt(data []byte, off int) binenc.Sum {
	return binenc.Sum{
		Lo: binary.LittleEndian.Uint64(data[off:]),
		Hi: binary.LittleEndian.Uint64(data[off+8:]),
	}
}

// stampEnvelope backpatches the integrity block of a fully encoded v4
// envelope whose payload section starts at payloadOff.
func stampEnvelope(b []byte, payloadOff int) {
	binary.LittleEndian.PutUint32(b[envOffPayload:], uint32(payloadOff))
	binenc.PutSum(b, envOffMetaSum, binenc.ChecksumBytes(b[envHeaderSize:payloadOff]))
	// The payload (the bulk of a forest artifact) carries the chunked sum,
	// so the load gate verifies it on all cores.
	binenc.PutSum(b, envOffPaySum, binenc.ChecksumChunked(b[payloadOff:]))
}

// EnvelopeChecksum returns the whole-envelope content checksum of an
// encoded artifact — the value the registry stamps into its manifest at
// publish and cross-checks at load. It does not verify the sections; data
// that is not an envelope returns the zero Sum.
func EnvelopeChecksum(data []byte) binenc.Sum {
	if len(data) < envHeaderSize || string(data[:4]) != string(artifactMagic[:]) {
		return binenc.Sum{}
	}
	return binenc.ChecksumBytes(data[:envHeaderSize])
}

// VerifyEnvelope checks an envelope's magic, version and section sums in
// one streaming pass over the bytes and returns the whole-envelope
// checksum. This is the load path's trust gate: it catches truncation,
// torn writes, bit-flips and envelopes of any version but ArtifactVersion
// before any section is aliased, at memory speed instead of the O(nodes)
// structural scan.
func VerifyEnvelope(data []byte) (binenc.Sum, error) {
	if len(data) < len(artifactMagic) || string(data[:4]) != string(artifactMagic[:]) {
		return binenc.Sum{}, fmt.Errorf("forecast: not a model artifact (bad magic)")
	}
	if len(data) >= 6 {
		if v := binary.LittleEndian.Uint16(data[4:]); v != ArtifactVersion {
			return binenc.Sum{}, fmt.Errorf("forecast: artifact version %d unsupported (this build reads version %d)",
				v, ArtifactVersion)
		}
	}
	if len(data) < envHeaderSize {
		return binenc.Sum{}, fmt.Errorf("forecast: artifact truncated inside its %d-byte header (%d bytes)",
			envHeaderSize, len(data))
	}
	payloadOff := int(binary.LittleEndian.Uint32(data[envOffPayload:]))
	if payloadOff < envHeaderSize || payloadOff > len(data) {
		return binenc.Sum{}, fmt.Errorf("forecast: artifact payload offset %d outside file of %d bytes",
			payloadOff, len(data))
	}
	if want, got := envSumAt(data, envOffMetaSum), binenc.ChecksumBytes(data[envHeaderSize:payloadOff]); got != want {
		return binenc.Sum{}, fmt.Errorf("forecast: artifact meta section checksum mismatch (stamped %s, content %s)",
			want, got)
	}
	if want, got := envSumAt(data, envOffPaySum), binenc.ChecksumChunked(data[payloadOff:]); got != want {
		return binenc.Sum{}, fmt.Errorf("forecast: artifact payload section checksum mismatch (stamped %s, content %s)",
			want, got)
	}
	return binenc.ChecksumBytes(data[:envHeaderSize]), nil
}
