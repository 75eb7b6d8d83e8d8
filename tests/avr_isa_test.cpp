#include <gtest/gtest.h>

#include "cores/avr/assembler.hpp"
#include "cores/avr/isa.hpp"
#include "cores/avr/programs.hpp"
#include "util/assert.hpp"

namespace ripple::cores::avr {
namespace {

TEST(AvrIsa, KnownEncodings) {
  // Reference words from the AVR instruction set manual.
  Instruction i;
  i.mnemonic = Mnemonic::Add;
  i.rd = 1;
  i.rr = 2;
  EXPECT_EQ(encode(i), 0x0c12u); // add r1, r2

  i.mnemonic = Mnemonic::Ldi;
  i.rd = 16;
  i.imm = 0xff;
  EXPECT_EQ(encode(i), 0xef0fu); // ldi r16, 0xff

  i.mnemonic = Mnemonic::Rjmp;
  i.offset = -1;
  EXPECT_EQ(encode(i), 0xcfffu); // rjmp .-1 (infinite loop)

  i.mnemonic = Mnemonic::Mov;
  i.rd = 26;
  i.rr = 20;
  EXPECT_EQ(encode(i), 0x2fa4u); // mov r26, r20

  i.mnemonic = Mnemonic::LdX;
  i.rd = 5;
  EXPECT_EQ(encode(i), 0x905cu); // ld r5, X

  i.mnemonic = Mnemonic::StX;
  i.rr = 5;
  EXPECT_EQ(encode(i), 0x925cu); // st X, r5

  i.mnemonic = Mnemonic::Brbc;
  i.sreg_bit = kZ;
  i.offset = -3;
  EXPECT_EQ(encode(i), 0xf7e9u); // brne .-3
}

TEST(AvrIsa, EncodeRejectsBadOperands) {
  Instruction i;
  i.mnemonic = Mnemonic::Ldi;
  i.rd = 3; // must be r16..r31
  EXPECT_THROW((void)encode(i), Error);

  i.mnemonic = Mnemonic::Rjmp;
  i.offset = 5000;
  EXPECT_THROW((void)encode(i), Error);

  i.mnemonic = Mnemonic::Brbs;
  i.offset = 100;
  i.sreg_bit = kC;
  EXPECT_THROW((void)encode(i), Error);
}

TEST(AvrIsa, DecodeUnknownIsNullopt) {
  EXPECT_FALSE(decode(0x9409).has_value()); // IJMP, outside subset
  EXPECT_FALSE(decode(0x95e8).has_value()); // SPM
}

class RoundTrip : public ::testing::TestWithParam<Mnemonic> {};

TEST_P(RoundTrip, EncodeDecodeIdentity) {
  const Mnemonic m = GetParam();
  for (int variant = 0; variant < 8; ++variant) {
    Instruction in;
    in.mnemonic = m;
    in.rd = static_cast<std::uint8_t>((variant * 5 + 1) % 32);
    in.rr = static_cast<std::uint8_t>((variant * 11 + 2) % 32);
    in.imm = static_cast<std::uint8_t>(variant * 37);
    in.offset = static_cast<std::int16_t>(variant * 9 - 30);
    in.sreg_bit = static_cast<std::uint8_t>(variant % 4);
    // Normalize fields the encoding does not carry for this mnemonic.
    switch (m) {
      case Mnemonic::Nop:
        in = Instruction{};
        break;
      case Mnemonic::Cpi:
      case Mnemonic::Sbci:
      case Mnemonic::Subi:
      case Mnemonic::Ori:
      case Mnemonic::Andi:
      case Mnemonic::Ldi:
        in.rd = static_cast<std::uint8_t>(16 + (in.rd % 16));
        in.rr = 0;
        in.offset = 0;
        in.sreg_bit = kC;
        break;
      case Mnemonic::Add:
      case Mnemonic::Adc:
      case Mnemonic::Sub:
      case Mnemonic::Sbc:
      case Mnemonic::And:
      case Mnemonic::Eor:
      case Mnemonic::Or:
      case Mnemonic::Mov:
      case Mnemonic::Cp:
      case Mnemonic::Cpc:
        in.imm = 0;
        in.offset = 0;
        in.sreg_bit = kC;
        break;
      case Mnemonic::Com:
      case Mnemonic::Inc:
      case Mnemonic::Dec:
      case Mnemonic::Lsr:
      case Mnemonic::Ror:
      case Mnemonic::LdX:
        in.rr = 0;
        in.imm = 0;
        in.offset = 0;
        in.sreg_bit = kC;
        break;
      case Mnemonic::StX:
        in.rd = 0;
        in.imm = 0;
        in.offset = 0;
        in.sreg_bit = kC;
        break;
      case Mnemonic::Rjmp:
        in.rd = in.rr = in.imm = 0;
        in.sreg_bit = kC;
        break;
      case Mnemonic::Brbs:
      case Mnemonic::Brbc:
        in.rd = in.rr = in.imm = 0;
        break;
      case Mnemonic::Out:
        in.rd = 0;
        in.imm = static_cast<std::uint8_t>(in.imm % 64);
        in.offset = 0;
        in.sreg_bit = kC;
        break;
    }
    const std::uint16_t word = encode(in);
    const auto out = decode(word);
    ASSERT_TRUE(out.has_value()) << "word " << word;
    EXPECT_EQ(*out, in) << disassemble(word);
    if (m == Mnemonic::Nop) break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMnemonics, RoundTrip,
    ::testing::Values(Mnemonic::Nop, Mnemonic::Add, Mnemonic::Adc,
                      Mnemonic::Sub, Mnemonic::Sbc, Mnemonic::And,
                      Mnemonic::Eor, Mnemonic::Or, Mnemonic::Mov, Mnemonic::Cp,
                      Mnemonic::Cpc, Mnemonic::Cpi, Mnemonic::Sbci,
                      Mnemonic::Subi, Mnemonic::Ori, Mnemonic::Andi,
                      Mnemonic::Ldi, Mnemonic::Com, Mnemonic::Inc,
                      Mnemonic::Dec, Mnemonic::Lsr, Mnemonic::Ror,
                      Mnemonic::LdX, Mnemonic::StX, Mnemonic::Rjmp,
                      Mnemonic::Brbs, Mnemonic::Brbc, Mnemonic::Out));

TEST(AvrAsm, LabelsAndBranches) {
  const Program p = assemble(R"(
start:
    ldi r16, 1
loop:
    dec r16
    brne loop
    rjmp start
)");
  ASSERT_EQ(p.words.size(), 4u);
  const auto brne = decode(p.words[2]);
  ASSERT_TRUE(brne.has_value());
  EXPECT_EQ(brne->mnemonic, Mnemonic::Brbc);
  EXPECT_EQ(brne->offset, -2);
  const auto rjmp = decode(p.words[3]);
  EXPECT_EQ(rjmp->offset, -4);
}

TEST(AvrAsm, EquAndOrg) {
  const Program p = assemble(R"(
.equ PORT, 0x05
.org 2
    out PORT, r4
)");
  ASSERT_EQ(p.words.size(), 3u);
  EXPECT_EQ(p.words[0], 0u);
  const auto out = decode(p.words[2]);
  EXPECT_EQ(out->mnemonic, Mnemonic::Out);
  EXPECT_EQ(out->imm, 5);
  EXPECT_EQ(out->rr, 4);
}

TEST(AvrAsm, AliasesExpand) {
  const Program p = assemble(R"(
    lsl r4
    rol r5
    clr r6
    tst r7
)");
  EXPECT_EQ(decode(p.words[0])->mnemonic, Mnemonic::Add);
  EXPECT_EQ(decode(p.words[1])->mnemonic, Mnemonic::Adc);
  EXPECT_EQ(decode(p.words[2])->mnemonic, Mnemonic::Eor);
  EXPECT_EQ(decode(p.words[3])->mnemonic, Mnemonic::And);
}

TEST(AvrAsm, NegativeImmediateWraps) {
  const Program p = assemble("subi r26, -16");
  const auto i = decode(p.words[0]);
  EXPECT_EQ(i->imm, 0xf0);
}

TEST(AvrAsm, Errors) {
  EXPECT_THROW(assemble("bogus r1"), Error);
  EXPECT_THROW(assemble("add r1"), Error);
  EXPECT_THROW(assemble("add r1, r40"), Error);
  EXPECT_THROW(assemble("rjmp nowhere"), Error);
  EXPECT_THROW(assemble("ldi r3, 1"), Error);  // r16..r31 only
  EXPECT_THROW(assemble("x: nop\nx: nop"), Error);
  EXPECT_THROW(assemble("ld r1, Y"), Error);
}

TEST(AvrAsm, CommentsIgnored) {
  const Program p = assemble(R"(
 ; full-line comment
    nop       ; trailing
    nop       // c++ style
)");
  EXPECT_EQ(p.words.size(), 2u);
}

TEST(AvrIsa, DisassembleSamples) {
  EXPECT_EQ(disassemble(0x0c12), "add r1, r2");
  EXPECT_EQ(disassemble(0xef0f), "ldi r16, 0xff");
  EXPECT_EQ(disassemble(0x0000), "nop");
  EXPECT_EQ(disassemble(0xffff), ".word 0xffff");
}

TEST(AvrPrograms, WorkloadsAssemble) {
  EXPECT_GT(fib_program().words.size(), 10u);
  EXPECT_GT(conv_program().words.size(), 30u);
}

} // namespace
} // namespace ripple::cores::avr
