package xmltok

import (
	"bytes"
)

// SkipCounts reports what a SkipSubtree consumed.
type SkipCounts struct {
	// Bytes is the number of raw input bytes the skip consumed.
	Bytes int64
	// Events is the number of markup events the skip passed over: start
	// and end tags (a self-closing tag counts as both), comments, CDATA
	// sections and processing instructions. Character data between tags is
	// not counted (it would not have produced separate events per run
	// boundary anyway).
	Events int64
}

// SkipSubtree consumes the remainder of the subtree of the most recently
// returned StartElement — everything up to and including its matching end
// tag — without materializing events: no attribute spans, no entity
// expansion, no text decoding, and a window that is discarded as it is
// consumed, so arbitrarily large subtrees are skipped in constant memory.
//
// Inside the skipped region start and end tags are only depth-counted —
// an interior end tag's name is never compared with the start tag it
// closes, so <x></y> passes — and comments/CDATA/PIs must be terminated;
// only the outermost end tag's name is verified against name. Element
// names, attributes and content models inside the region are NOT
// validated. Callers that need full validation (or full well-formedness)
// of skipped regions must consume events conventionally instead (the
// xsax filtered reader's validate mode does exactly that).
//
// SkipSubtree must be called only when the last returned event was a
// StartElement; after it returns, the scanner is positioned exactly after
// the element's end tag and NextEvent continues normally. The depth
// reported by Depth decreases by one.
func (s *Scanner) SkipSubtree(name string) (SkipCounts, error) {
	var c SkipCounts
	if s.hasPending {
		// The element was self-closing: its subtree is empty. Consume the
		// synthesized EndElement.
		s.hasPending = false
		s.depth--
		s.openSyms = s.openSyms[:len(s.openSyms)-1]
		return c, nil
	}
	s.mark = -1 // nothing pinned: let fill discard consumed bytes freely
	start := s.base + int64(s.pos)
	depth := 1
	for depth > 0 {
		// Jump to the next markup start.
		i := bytes.IndexByte(s.buf[s.pos:], '<')
		if i < 0 {
			s.pos = len(s.buf)
			if err := s.fill(); err != nil {
				return s.skipCounts(c, start), s.errf("unexpected EOF: %d element(s) unclosed while skipping <%s>", depth, name)
			}
			continue
		}
		s.pos += i
		if err := s.ensure(2); err != nil {
			return s.skipCounts(c, start), s.errf("unexpected EOF after '<' while skipping <%s>", name)
		}
		switch s.buf[s.pos+1] {
		case '/':
			s.pos += 2
			matched, err := s.skipEndName(name, depth == 1)
			if err != nil {
				return s.skipCounts(c, start), err
			}
			ch, err := s.skipWS()
			if err != nil || ch != '>' {
				return s.skipCounts(c, start), s.errf("malformed end tag while skipping <%s>", name)
			}
			s.pos++
			depth--
			s.depth--
			c.Events++
			if depth == 0 {
				// The skipped element's symbol leaves the depth stack with
				// it (interior tags never touched the stack).
				s.openSyms = s.openSyms[:len(s.openSyms)-1]
				if !matched {
					return s.skipCounts(c, start), s.errf("end tag does not match <%s> while skipping its subtree", name)
				}
			}
		case '?':
			s.pos += 2
			if err := s.skipUntil(piClose, "processing instruction"); err != nil {
				return s.skipCounts(c, start), err
			}
			c.Events++
		case '!':
			s.pos += 2
			if err := s.skipBang(); err != nil {
				return s.skipCounts(c, start), err
			}
			c.Events++
		default:
			s.pos++
			selfClose, err := s.skipStartTag(name)
			if err != nil {
				return s.skipCounts(c, start), err
			}
			c.Events++
			if selfClose {
				c.Events++ // counts as start + end
			} else {
				depth++
				s.depth++
			}
		}
	}
	return s.skipCounts(c, start), nil
}

func (s *Scanner) skipCounts(c SkipCounts, start int64) SkipCounts {
	c.Bytes = s.base + int64(s.pos) - start
	return c
}

// skipEndName consumes the name of an end tag. When match is set it also
// compares the name byte-wise against want (the subtree root's name); the
// comparison is incremental so the name never needs to fit the window.
func (s *Scanner) skipEndName(want string, match bool) (bool, error) {
	j := 0
	ok := true
	for {
		for s.pos < len(s.buf) && isNameByte(s.buf[s.pos]) {
			if match {
				if j < len(want) && s.buf[s.pos] == want[j] {
					j++
				} else {
					ok = false
				}
			}
			s.pos++
		}
		if s.pos < len(s.buf) {
			break
		}
		if err := s.fill(); err != nil {
			return false, s.errf("unexpected EOF in end tag while skipping <%s>", want)
		}
	}
	return ok && (!match || j == len(want)), nil
}

// skipStartTag consumes a start tag from just past its '<', honoring
// quoted attribute values (which may contain '>'), and reports whether the
// tag was self-closing.
func (s *Scanner) skipStartTag(name string) (selfClose bool, err error) {
	var quote byte
	var prev byte
	for {
		win := s.buf[s.pos:]
		if quote != 0 {
			i := bytes.IndexByte(win, quote)
			if i < 0 {
				s.pos = len(s.buf)
				if err := s.fill(); err != nil {
					return false, s.errf("unterminated attribute value while skipping <%s>", name)
				}
				continue
			}
			s.pos += i + 1
			prev = quote
			quote = 0
			continue
		}
		// Bulk scan: find the tag close with one IndexByte, then check the
		// prefix for an opening quote — the same bounded-search shape as
		// the attribute-value scanner, avoiding IndexAny's per-rune loop.
		gt := bytes.IndexByte(win, '>')
		lim := gt
		if lim < 0 {
			lim = len(win)
		}
		qi := bytes.IndexByte(win[:lim], '"')
		if qj := bytes.IndexByte(win[:lim], '\''); qj >= 0 && (qi < 0 || qj < qi) {
			qi = qj
		}
		if qi >= 0 {
			if qi > 0 {
				prev = win[qi-1]
			}
			quote = win[qi]
			s.pos += qi + 1
			continue
		}
		if gt < 0 {
			if len(win) > 0 {
				prev = win[len(win)-1]
			}
			s.pos = len(s.buf)
			if err := s.fill(); err != nil {
				return false, s.errf("unterminated tag while skipping <%s>", name)
			}
			continue
		}
		if gt > 0 {
			prev = win[gt-1]
		}
		s.pos += gt + 1
		return prev == '/', nil
	}
}

// skipBang consumes a comment or CDATA section from just past "<!".
// Anything else is malformed inside element content.
func (s *Scanner) skipBang() error {
	if s.ensure(2) == nil && bytes.HasPrefix(s.buf[s.pos:], commentOpen) {
		s.pos += 2
		return s.skipUntil(commentClose, "comment")
	}
	if s.ensure(7) == nil && bytes.HasPrefix(s.buf[s.pos:], cdataBang) {
		s.pos += 7
		return s.skipUntil(cdataClose, "CDATA section")
	}
	return s.errf("unexpected <! markup in element content")
}

// skipUntil consumes input through the next occurrence of close.
func (s *Scanner) skipUntil(close []byte, what string) error {
	for {
		if i := bytes.Index(s.buf[s.pos:], close); i >= 0 {
			s.pos += i + len(close)
			return nil
		}
		if p := len(s.buf) - (len(close) - 1); p > s.pos {
			s.pos = p
		}
		if err := s.fill(); err != nil {
			return s.errf("unterminated %s", what)
		}
	}
}
