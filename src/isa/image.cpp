#include "isa/image.hpp"

namespace cgra::isa {

Image::Image(const Program& prog)
    : code_(prog.code), decoded_(predecode_all(code_)), data_(prog.data) {}

Program Image::program() const {
  Program prog;
  prog.code = code_;
  prog.data = data_;
  return prog;
}

ImagePtr prepare(const Program& prog) {
  return std::make_shared<const Image>(prog);
}

}  // namespace cgra::isa
