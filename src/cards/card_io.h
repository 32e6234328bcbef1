#pragma once

/// \file card_io.h
/// JSON serialization for technology cards, on the library's own io
/// layer (io::JsonWriter emits %.17g doubles, io::json_parse reads them
/// back) so a saved card reloads bitwise: save -> load -> study is
/// byte-identical to running the in-memory card.
///
/// Loading is strict where the total JsonValue accessors are lenient:
/// a malformed document (truncated text, a field of the wrong type, a
/// duplicate node name) throws std::invalid_argument naming the field —
/// and, for syntax errors, carrying json_parse's byte offset.

#include <string>

#include "cards/technology_card.h"
#include "io/writer.h"

namespace subscale::cards {

/// Stamp in every card document; bumped if the card schema changes.
inline constexpr const char* kCardSchemaTag = "subscale.card.v1";

/// Emit the card into an open writer (a complete document: the card is
/// the writer's root object).
void write_card(io::JsonWriter& w, const TechnologyCard& card);

/// The card as a standalone JSON document.
std::string card_to_json(const TechnologyCard& card);

/// Parse + validate a card document. Throws std::invalid_argument on
/// syntax errors (with json_parse's byte offset), wrong-typed or
/// missing fields, and semantically invalid cards (validate()).
TechnologyCard card_from_json(const std::string& text);

/// File convenience wrappers. load_card throws on unreadable files too.
TechnologyCard load_card(const std::string& path);
void save_card(const TechnologyCard& card, const std::string& path);

}  // namespace subscale::cards
