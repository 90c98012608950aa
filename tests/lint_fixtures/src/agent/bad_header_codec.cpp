// Fixture: a device module framing and parsing a manifest with the wire
// codecs itself — must trip `header-codec`. Image headers are framed and
// parsed by verify::header_size / parse_image_header / read_image_header.
#include "manifest/manifest.hpp"

bool manifest_complete(upkit::ByteSpan frame) {
    const std::size_t total = upkit::manifest::wire_size_partial(frame);
    return total != 0 && upkit::manifest::parse_manifest(frame).has_value();
}
