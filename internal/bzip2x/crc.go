package bzip2x

import "encoding/binary"

// bzip2 uses a big-endian (non-reflected) CRC-32 with the standard
// polynomial — the bit-mirrored cousin of the gzip CRC, catalogued as
// CRC-32/BZIP2.
const crcPoly = 0x04C11DB7

// crcTables are the slicing-by-8 tables of the MSB-first CRC:
// crcTables[0] is the classic byte table, and crcTables[k][b] is the
// register byte b leaves behind after k more zero bytes, so eight input
// bytes fold into the register with eight independent lookups.
var crcTables = func() (t [8][256]uint32) {
	for i := range t[0] {
		c := uint32(i) << 24
		for b := 0; b < 8; b++ {
			if c&0x80000000 != 0 {
				c = c<<1 ^ crcPoly
			} else {
				c <<= 1
			}
		}
		t[0][i] = c
	}
	for k := 1; k < 8; k++ {
		for i := range t[k] {
			p := t[k-1][i]
			t[k][i] = p<<8 ^ t[0][p>>24]
		}
	}
	return t
}()

// blockCRC computes the bzip2 block CRC of data (pre-RLE1 bytes).
func blockCRC(data []byte) uint32 {
	t := &crcTables
	crc := ^uint32(0)
	for ; len(data) >= 8; data = data[8:] {
		v := crc ^ binary.BigEndian.Uint32(data)
		crc = t[7][v>>24] ^ t[6][v>>16&0xff] ^ t[5][v>>8&0xff] ^ t[4][v&0xff] ^
			t[3][data[4]] ^ t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]]
	}
	for _, b := range data {
		crc = crc<<8 ^ t[0][byte(crc>>24)^b]
	}
	return ^crc
}

// combineCRC folds a block CRC into the stream CRC.
func combineCRC(stream, block uint32) uint32 {
	return (stream<<1 | stream>>31) ^ block
}
