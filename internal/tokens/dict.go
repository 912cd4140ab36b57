package tokens

import (
	"strings"
	"sync"
)

// ID is a token's code in the process-wide dictionary. IDs are assigned in
// first-seen order, so they carry no meaning beyond identity: two processes
// (or two runs) give the same token different IDs. Nothing persisted or
// emitted may carry an ID, and only equality of IDs may influence output.
type ID uint32

// dict is the process-wide, append-only token dictionary. A token keeps its
// ID for the life of the process, so the dictionary grows with the number of
// distinct tokens ever seen; re-reading known text adds nothing.
var dict = struct {
	mu    sync.RWMutex
	ids   map[string]ID
	texts []string // texts[id] is the token with that ID
}{ids: make(map[string]ID)}

// Intern returns the ID of tok, assigning the next free ID on first sight.
// It is safe for concurrent use.
func Intern(tok string) ID {
	dict.mu.RLock()
	id, ok := dict.ids[tok]
	dict.mu.RUnlock()
	if ok {
		return id
	}
	dict.mu.Lock()
	defer dict.mu.Unlock()
	return internLocked(tok)
}

// internAll appends the IDs of the non-empty tokens of toks to ids, taking
// the read lock once for the common case where every token is known.
func internAll(toks []string, ids []ID) []ID {
	n, known := len(ids), true
	dict.mu.RLock()
	for _, t := range toks {
		if t == "" {
			continue
		}
		id, ok := dict.ids[t]
		if !ok {
			known = false
			break
		}
		ids = append(ids, id)
	}
	dict.mu.RUnlock()
	if known {
		return ids
	}
	ids = ids[:n]
	dict.mu.Lock()
	for _, t := range toks {
		if t != "" {
			ids = append(ids, internLocked(t))
		}
	}
	dict.mu.Unlock()
	return ids
}

func internLocked(tok string) ID {
	if id, ok := dict.ids[tok]; ok {
		return id
	}
	// Tokens are often substrings of a whole attribute value; the clone
	// keeps the dictionary from pinning the value's memory.
	tok = strings.Clone(tok)
	id := ID(len(dict.texts))
	dict.texts = append(dict.texts, tok)
	dict.ids[tok] = id
	return id
}

// Lookup returns the ID of tok if it has been interned. It never inserts.
func Lookup(tok string) (ID, bool) {
	dict.mu.RLock()
	id, ok := dict.ids[tok]
	dict.mu.RUnlock()
	return id, ok
}

// Text returns the token an ID stands for. It panics on an ID that Intern
// never returned.
func Text(id ID) string {
	dict.mu.RLock()
	t := dict.texts[id]
	dict.mu.RUnlock()
	return t
}

// DictionarySize reports how many distinct tokens have been interned.
func DictionarySize() int {
	dict.mu.RLock()
	n := len(dict.texts)
	dict.mu.RUnlock()
	return n
}
