package policy

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParsePolicy parses the compact textual form of the Section 7 policy
// language used by the CLI tools:
//
//	policy := term (';' term)*                 sequential composition
//	term   := 'reject'
//	        | 'id'
//	        | 'lp+=' NUM                       raise local preference
//	        | 'prepend(' NUM ')'               AS-path prepending
//	        | 'addc(' NUM ')'                  add community
//	        | 'delc(' NUM ')'                  remove community
//	        | 'if' '(' cond ')' '{' policy '}' [ 'else' '{' policy '}' ]
//	cond   := or-expression over:
//	          'path(' NUM ')'  'comm(' NUM ')'  'lp==' NUM
//	          with '!', '&', '|' and parentheses.
//
// Example:
//
//	addc(3); if (comm(7) & !path(2)) { lp+=10 } else { reject }
//
// The grammar can only express increasing policies — there is no way to
// lower local preference — so anything that parses is convergence-safe.
func ParsePolicy(src string) (Policy, error) {
	p := &parser{input: src}
	pol, err := p.parsePolicy()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, p.errorf("trailing input %q", p.input[p.pos:])
	}
	return pol, nil
}

type parser struct {
	input string
	pos   int
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("policy: at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for p.pos < len(p.input) && unicode.IsSpace(rune(p.input[p.pos])) {
		p.pos++
	}
}

// peekWord returns the identifier starting at the cursor without
// consuming it.
func (p *parser) peekWord() string {
	p.skipSpace()
	end := p.pos
	for end < len(p.input) && (unicode.IsLetter(rune(p.input[end]))) {
		end++
	}
	return p.input[p.pos:end]
}

func (p *parser) eat(tok string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.input[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *parser) expect(tok string) error {
	if !p.eat(tok) {
		return p.errorf("expected %q", tok)
	}
	return nil
}

func (p *parser) number() (uint64, error) {
	p.skipSpace()
	end := p.pos
	for end < len(p.input) && p.input[end] >= '0' && p.input[end] <= '9' {
		end++
	}
	if end == p.pos {
		return 0, p.errorf("expected a number")
	}
	n, err := strconv.ParseUint(p.input[p.pos:end], 10, 32)
	if err != nil {
		return 0, p.errorf("bad number: %v", err)
	}
	p.pos = end
	return n, nil
}

func (p *parser) parsePolicy() (Policy, error) {
	pol, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.eat(";") {
		next, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		pol = Compose(pol, next)
	}
	return pol, nil
}

func (p *parser) parseTerm() (Policy, error) {
	switch p.peekWord() {
	case "reject":
		p.eat("reject")
		return Reject(), nil
	case "id":
		p.eat("id")
		return Identity(), nil
	case "lp":
		p.eat("lp")
		if err := p.expect("+="); err != nil {
			return nil, err
		}
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		return IncrPrefBy(uint32(n)), nil
	case "prepend":
		p.eat("prepend")
		if err := p.expect("("); err != nil {
			return nil, err
		}
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		if n > 255 {
			return nil, p.errorf("prepend count %d out of range (max 255)", n)
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return PrependBy(uint8(n)), nil
	case "addc", "delc":
		add := p.peekWord() == "addc"
		if add {
			p.eat("addc")
		} else {
			p.eat("delc")
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		if n > uint64(MaxCommunity) {
			return nil, p.errorf("community %d out of range (max %d)", n, MaxCommunity)
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if add {
			return AddComm(Community(n)), nil
		}
		return DelComm(Community(n)), nil
	case "if":
		p.eat("if")
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if err := p.expect("{"); err != nil {
			return nil, err
		}
		then, err := p.parsePolicy()
		if err != nil {
			return nil, err
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		if p.peekWord() == "else" {
			p.eat("else")
			if err := p.expect("{"); err != nil {
				return nil, err
			}
			els, err := p.parsePolicy()
			if err != nil {
				return nil, err
			}
			if err := p.expect("}"); err != nil {
				return nil, err
			}
			return IfElse(cond, then, els), nil
		}
		return If(cond, then), nil
	}
	return nil, p.errorf("expected a policy term, found %q", rest(p.input, p.pos))
}

func (p *parser) parseOr() (Condition, error) {
	c, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eat("|") {
		d, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		c = Or(c, d)
	}
	return c, nil
}

func (p *parser) parseAnd() (Condition, error) {
	c, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.eat("&") {
		d, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		c = And(c, d)
	}
	return c, nil
}

func (p *parser) parseUnary() (Condition, error) {
	if p.eat("!") {
		c, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(c), nil
	}
	switch p.peekWord() {
	case "path", "comm":
		isPath := p.peekWord() == "path"
		if isPath {
			p.eat("path")
		} else {
			p.eat("comm")
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if isPath {
			return InPath(int(n)), nil
		}
		if n > uint64(MaxCommunity) {
			return nil, p.errorf("community %d out of range", n)
		}
		return InComm(Community(n)), nil
	case "lp":
		p.eat("lp")
		if err := p.expect("=="); err != nil {
			return nil, err
		}
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		return LPrefEq(uint32(n)), nil
	}
	if p.eat("(") {
		c, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, p.errorf("expected a condition, found %q", rest(p.input, p.pos))
}

func rest(s string, pos int) string {
	s = strings.TrimSpace(s[pos:])
	if len(s) > 12 {
		return s[:12] + "…"
	}
	return s
}
